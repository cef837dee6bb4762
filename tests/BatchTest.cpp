//===- tests/BatchTest.cpp - Batch engine: races, determinism, cache ------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The determinism/thread-safety layer over the batch-verification
/// engine:
///
///   * thread pool sanity (every index runs exactly once, from many
///     concurrent workers, across thousands of back-to-back batches),
///   * a 2x-oversubscribed stress batch — two driver::Compiler pipelines
///     per hardware thread — that must be race-free (run it under
///     -DQCC_SANITIZE=thread to let TSan prove it),
///   * byte-identical results between --jobs 1 and --jobs N and across
///     repeated runs (bounds, diagnostics, metrics JSON modulo timing
///     fields),
///   * result-cache behavior: hit on identical reruns; miss on a source
///     edit, a -D change, or an option change (--inline, --no-opt) — the
///     key covers options, so cache poisoning is impossible.
///
//===----------------------------------------------------------------------===//

#include "batch/Batch.h"
#include "batch/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace qcc;
using namespace qcc::batch;

namespace {

unsigned hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// A small program exercising calls, loops, and the analyzer.
const char *SmallProgram = R"(
typedef unsigned int u32;
u32 g[8];
u32 leaf(u32 x) { return x * 3 + 1; }
u32 mid(u32 x) {
  u32 i, acc;
  acc = 0;
  for (i = 0; i < 4; i++) acc = acc + leaf(x + i);
  return acc;
}
int main() {
  u32 i;
  for (i = 0; i < 8; i++) g[i & 7] = mid(i);
  return (int)(g[3] & 0xff);
}
)";

/// A variant with one constant edited (a "source edit" for cache tests).
const char *SmallProgramEdited = R"(
typedef unsigned int u32;
u32 g[8];
u32 leaf(u32 x) { return x * 3 + 2; }
u32 mid(u32 x) {
  u32 i, acc;
  acc = 0;
  for (i = 0; i < 4; i++) acc = acc + leaf(x + i);
  return acc;
}
int main() {
  u32 i;
  for (i = 0; i < 8; i++) g[i & 7] = mid(i);
  return (int)(g[3] & 0xff);
}
)";

/// A program whose behavior depends on a #define (for -D cache tests).
const char *DefineProgram = R"(
typedef unsigned int u32;
#define N 4
u32 f(u32 x) { return x + N; }
int main() { return (int)(f(10) & 0xff); }
)";

//===----------------------------------------------------------------------===//
// Thread pool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool Pool(4);
  ASSERT_EQ(Pool.threadCount(), 4u);
  // Empty, a single item, fewer items than workers, and far more.
  for (size_t N : {size_t(0), size_t(1), size_t(3), size_t(10'000)}) {
    std::vector<std::atomic<unsigned>> Ran(N);
    Pool.parallelFor(N, [&Ran](size_t I) { Ran[I].fetch_add(1); });
    for (size_t I = 0; I != N; ++I)
      ASSERT_EQ(Ran[I].load(), 1u) << "N " << N << ", index " << I;
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  // Thousands of short back-to-back batches: every batch boundary is a
  // chance for a worker still finishing batch g to see batch g+1's state.
  ThreadPool Pool(3);
  for (unsigned Round = 0; Round != 5000; ++Round) {
    std::atomic<size_t> Sum{0};
    Pool.parallelFor(8, [&Sum](size_t I) { Sum.fetch_add(I + 1); });
    ASSERT_EQ(Sum.load(), 36u) << "round " << Round;
  }
}

TEST(ThreadPool, UnevenItemsLoadBalance) {
  // One heavy item first; the other workers must keep claiming and drain
  // the rest while it runs. Correctness (not timing) is what is asserted.
  ThreadPool Pool(4);
  std::atomic<size_t> Done{0};
  Pool.parallelFor(64, [&Done](size_t I) {
    volatile uint64_t Spin = I == 0 ? 2'000'000 : 1'000;
    while (Spin)
      Spin = Spin - 1;
    Done.fetch_add(1);
  });
  EXPECT_EQ(Done.load(), 64u);
}

//===----------------------------------------------------------------------===//
// Oversubscribed stress (race detection; TSan-clean under QCC_SANITIZE)
//===----------------------------------------------------------------------===//

TEST(BatchStress, OversubscribedBatchIsRaceFree) {
  // 2x oversubscription: twice as many workers as hardware threads, each
  // running full compile+validate+analyze pipelines concurrently. Any
  // hidden global mutable state in Diagnostics, interning, or the
  // pipeline itself surfaces here (and under TSan, deterministically).
  unsigned Workers = 2 * hardwareThreads();
  std::vector<BatchJob> Jobs;
  for (unsigned I = 0; I != 4 * Workers; ++I) {
    BatchJob J;
    J.Id = "stress" + std::to_string(I);
    // Alternate sources so neighbouring workers run distinct programs.
    J.Source = I % 2 ? SmallProgramEdited : SmallProgram;
    Jobs.push_back(std::move(J));
  }
  BatchOptions Opts;
  Opts.Jobs = Workers;
  BatchResult R = runBatch(Jobs, Opts);
  ASSERT_EQ(R.Programs.size(), Jobs.size());
  for (const ProgramResult &P : R.Programs) {
    EXPECT_TRUE(P.Ok) << P.Id << ": " << P.Diagnostics;
    EXPECT_TRUE(P.Theorem1Checked) << P.Id;
    EXPECT_TRUE(P.Theorem1Ok) << P.Id;
  }
}

TEST(BatchStress, ConcurrentCompilersShareNoDiagnosticState) {
  // Two raw driver::Compiler pipelines on two threads, no engine in
  // between: the Diagnostics thread-safety contract directly.
  auto Run = [](std::string *DiagsOut) {
    for (unsigned I = 0; I != 8; ++I) {
      DiagnosticEngine D;
      auto C = driver::compile(SmallProgram, D);
      if (!C)
        *DiagsOut += "compile failed: " + D.str();
      *DiagsOut += D.str(); // Expected empty: no warnings here.
    }
  };
  std::string DiagsA, DiagsB;
  std::thread TA(Run, &DiagsA);
  std::thread TB(Run, &DiagsB);
  TA.join();
  TB.join();
  EXPECT_EQ(DiagsA, "");
  EXPECT_EQ(DiagsB, "");
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

TEST(BatchDeterminism, SerialAndParallelRunsAreByteIdentical) {
  std::vector<BatchJob> Jobs = corpusJobs();
  BatchOptions Serial;
  Serial.Jobs = 1;
  BatchOptions Parallel;
  Parallel.Jobs = 2 * hardwareThreads();
  BatchResult RSerial = runBatch(Jobs, Serial);
  BatchResult RParallel = runBatch(Jobs, Parallel);

  ASSERT_EQ(RSerial.Programs.size(), RParallel.Programs.size());
  for (size_t I = 0; I != RSerial.Programs.size(); ++I) {
    const ProgramResult &A = RSerial.Programs[I];
    const ProgramResult &B = RParallel.Programs[I];
    EXPECT_EQ(A.Id, B.Id);
    EXPECT_EQ(A.Ok, B.Ok) << A.Id;
    EXPECT_EQ(A.Diagnostics, B.Diagnostics) << A.Id;
    ASSERT_EQ(A.Bounds.size(), B.Bounds.size()) << A.Id;
    for (size_t F = 0; F != A.Bounds.size(); ++F) {
      EXPECT_EQ(A.Bounds[F].Function, B.Bounds[F].Function) << A.Id;
      EXPECT_EQ(A.Bounds[F].SymbolicBound, B.Bounds[F].SymbolicBound)
          << A.Id;
      EXPECT_EQ(A.Bounds[F].ConcreteBytes, B.Bounds[F].ConcreteBytes)
          << A.Id;
    }
  }
  EXPECT_EQ(metricsJson(RSerial, JsonDetail::Deterministic),
            metricsJson(RParallel, JsonDetail::Deterministic));
}

TEST(BatchDeterminism, RepeatedRunsAreByteIdentical) {
  std::vector<BatchJob> Jobs = corpusJobs(/*ValidateTranslation=*/false);
  BatchOptions Opts;
  Opts.Jobs = hardwareThreads();
  std::string First = metricsJson(runBatch(Jobs, Opts),
                                  JsonDetail::Deterministic);
  std::string Second = metricsJson(runBatch(Jobs, Opts),
                                   JsonDetail::Deterministic);
  EXPECT_EQ(First, Second);
}

TEST(BatchDeterminism, DeterministicJsonOmitsTimingFields) {
  std::vector<BatchJob> Jobs{{"one.c", SmallProgram, {}}};
  BatchResult R = runBatch(Jobs, {});
  std::string Full = metricsJson(R, JsonDetail::Full);
  std::string Det = metricsJson(R, JsonDetail::Deterministic);
  EXPECT_NE(Full.find("wall_us"), std::string::npos);
  EXPECT_NE(Full.find("total_us"), std::string::npos);
  EXPECT_NE(Full.find("\"cache\""), std::string::npos);
  EXPECT_EQ(Det.find("wall_us"), std::string::npos);
  EXPECT_EQ(Det.find("total_us"), std::string::npos);
  EXPECT_EQ(Det.find("\"us\""), std::string::npos);
  EXPECT_EQ(Det.find("\"cache\""), std::string::npos);
  // Non-timing metrics stay.
  EXPECT_NE(Det.find("refinement_events"), std::string::npos);
  EXPECT_NE(Det.find("proof_nodes"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Result cache
//===----------------------------------------------------------------------===//

TEST(ResultCacheTest, IdenticalRerunHits) {
  ResultCache Cache;
  std::vector<BatchJob> Jobs{{"p.c", SmallProgram, {}}};
  BatchOptions Opts;
  Opts.Jobs = 1;
  Opts.Cache = &Cache;
  BatchResult First = runBatch(Jobs, Opts);
  EXPECT_EQ(First.Cache.Hits, 0u);
  EXPECT_EQ(First.Cache.Misses, 1u);
  EXPECT_FALSE(First.Programs[0].CacheHit);

  BatchResult Second = runBatch(Jobs, Opts);
  EXPECT_EQ(Second.Cache.Hits, 1u);
  EXPECT_EQ(Second.Cache.Misses, 0u);
  EXPECT_TRUE(Second.Programs[0].CacheHit);
  // The cached result is the same verification outcome.
  EXPECT_EQ(Second.Programs[0].Ok, First.Programs[0].Ok);
  ASSERT_EQ(Second.Programs[0].Bounds.size(),
            First.Programs[0].Bounds.size());
}

TEST(ResultCacheTest, SourceEditMisses) {
  ResultCache Cache;
  BatchOptions Opts;
  Opts.Cache = &Cache;
  Opts.Jobs = 1;
  runBatch({{"p.c", SmallProgram, {}}}, Opts);
  BatchResult Edited = runBatch({{"p.c", SmallProgramEdited, {}}}, Opts);
  EXPECT_EQ(Edited.Cache.Hits, 0u);
  EXPECT_EQ(Edited.Cache.Misses, 1u);
}

TEST(ResultCacheTest, DefineChangeMisses) {
  ResultCache Cache;
  BatchOptions Opts;
  Opts.Cache = &Cache;
  Opts.Jobs = 1;

  BatchJob Base{"d.c", DefineProgram, {}};
  runBatch({Base}, Opts);

  BatchJob Redefined = Base;
  Redefined.Options.Defines["N"] = 9; // qcc -D N=9
  BatchResult R = runBatch({Redefined}, Opts);
  EXPECT_EQ(R.Cache.Hits, 0u);
  EXPECT_EQ(R.Cache.Misses, 1u);

  // And the redefined program really is a different verification: its
  // main returns a different exit path but stays verifiable.
  EXPECT_TRUE(R.Programs[0].Ok) << R.Programs[0].Diagnostics;

  // Rerunning either keyed variant hits its own entry — no poisoning.
  EXPECT_EQ(runBatch({Base}, Opts).Cache.Hits, 1u);
  EXPECT_EQ(runBatch({Redefined}, Opts).Cache.Hits, 1u);
}

TEST(ResultCacheTest, OptionChangeMisses) {
  ResultCache Cache;
  BatchOptions Opts;
  Opts.Cache = &Cache;
  Opts.Jobs = 1;

  BatchJob Base{"p.c", SmallProgram, {}};
  runBatch({Base}, Opts);

  BatchJob Inlined = Base;
  Inlined.Options.Inline = true; // qcc --inline
  EXPECT_EQ(runBatch({Inlined}, Opts).Cache.Hits, 0u);

  BatchJob Unoptimized = Base;
  Unoptimized.Options.Optimize = false; // qcc --no-opt
  EXPECT_EQ(runBatch({Unoptimized}, Opts).Cache.Hits, 0u);

  BatchJob TailCalls = Base;
  TailCalls.Options.TailCalls = true; // qcc --tail-calls
  EXPECT_EQ(runBatch({TailCalls}, Opts).Cache.Hits, 0u);

  // All four variants coexist; each rerun hits only its own entry.
  EXPECT_EQ(Cache.size(), 4u);
  EXPECT_EQ(runBatch({Base}, Opts).Cache.Hits, 1u);
  EXPECT_EQ(runBatch({Inlined}, Opts).Cache.Hits, 1u);
}

TEST(ResultCacheTest, KeySeparatesEveryOption) {
  BatchJob J{"k.c", SmallProgram, {}};
  JobKey Base = jobKey(J, true);

  BatchJob Edit = J;
  Edit.Source = SmallProgramEdited;
  EXPECT_NE(jobKey(Edit, true), Base);

  BatchJob Def = J;
  Def.Options.Defines["X"] = 1;
  EXPECT_NE(jobKey(Def, true), Base);

  BatchJob DefValue = Def;
  DefValue.Options.Defines["X"] = 2;
  EXPECT_NE(jobKey(DefValue, true), jobKey(Def, true));

  BatchJob Inl = J;
  Inl.Options.Inline = true;
  EXPECT_NE(jobKey(Inl, true), Base);

  BatchJob NoOpt = J;
  NoOpt.Options.Optimize = false;
  EXPECT_NE(jobKey(NoOpt, true), Base);

  BatchJob NoValidate = J;
  NoValidate.Options.ValidateTranslation = false;
  EXPECT_NE(jobKey(NoValidate, true), Base);

  BatchJob Seeded = J;
  Seeded.Options.SeededSpecs["f"] =
      logic::FunctionSpec::balanced(logic::bConst(ExtNat(8)));
  EXPECT_NE(jobKey(Seeded, true), Base);

  // Theorem-1 mode is part of the key too.
  EXPECT_NE(jobKey(J, false), Base);
}

TEST(ResultCacheTest, PrimaryHashCollisionIsAMissNotAWrongVerdict) {
  // The cache buckets on a single 64-bit FNV-1a hash; two sources that
  // collide in it used to be indistinguishable, so the second would be
  // served the first one's verdict. The key now carries an independent
  // second hash, verified on every hit: force two keys into the same
  // bucket and the lookup must miss (and count the collision), never
  // return the resident entry.
  ResultCache Cache;
  JobKey Resident{42, 1001};
  JobKey Colliding{42, 2002}; // same bucket, different content
  auto Result = std::make_shared<ProgramResult>();
  Result->Id = "resident.c";
  Result->Ok = true;
  Cache.insert(Resident, Result);

  EXPECT_EQ(Cache.lookup(Colliding), nullptr);
  EXPECT_EQ(Cache.stats().Collisions, 1u);
  EXPECT_EQ(Cache.stats().Hits, 0u);

  // The resident entry itself still hits.
  auto Hit = Cache.lookup(Resident);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Id, "resident.c");
  EXPECT_EQ(Cache.stats().Hits, 1u);
  EXPECT_EQ(Cache.stats().Collisions, 1u);
}

TEST(ResultCacheTest, SharedCacheIsThreadSafeUnderDuplicates) {
  // Many duplicate jobs racing on one cache: every result must still be
  // correct; hit/miss counts depend on the schedule, but hits + misses
  // equals the job count and at least one job computes.
  ResultCache Cache;
  std::vector<BatchJob> Jobs;
  for (unsigned I = 0; I != 32; ++I)
    Jobs.push_back({"dup" + std::to_string(I), SmallProgram, {}});
  BatchOptions Opts;
  Opts.Jobs = 2 * hardwareThreads();
  Opts.Cache = &Cache;
  BatchResult R = runBatch(Jobs, Opts);
  EXPECT_EQ(R.Cache.Hits + R.Cache.Misses, Jobs.size());
  EXPECT_GE(R.Cache.Misses, 1u);
  for (const ProgramResult &P : R.Programs) {
    EXPECT_TRUE(P.Ok) << P.Id << ": " << P.Diagnostics;
    EXPECT_EQ(P.Id.rfind("dup", 0), 0u); // Ids survive cache hits.
  }
}

//===----------------------------------------------------------------------===//
// Single-job reporting
//===----------------------------------------------------------------------===//

TEST(VerifyOne, ReportsPassMetricsAndTheorem1) {
  ProgramResult R = verifyOne({"one.c", SmallProgram, {}});
  EXPECT_TRUE(R.Ok) << R.Diagnostics;
  EXPECT_TRUE(R.Theorem1Checked);
  EXPECT_TRUE(R.Theorem1Ok);
  EXPECT_FALSE(R.Bounds.empty());
  EXPECT_GT(R.Metrics.ProofNodes, 0u);
  // Validation on: all four pass pairs replayed, with events counted.
  ASSERT_EQ(R.Metrics.ReplayedEvents.size(), 4u);
  for (const auto &[Pass, Events] : R.Metrics.ReplayedEvents)
    EXPECT_GT(Events, 0u) << Pass;
  // Stage timings cover the pipeline in order.
  ASSERT_GE(R.Metrics.PassMicros.size(), 6u);
  EXPECT_EQ(R.Metrics.PassMicros.front().first, "parse");
  EXPECT_EQ(R.Metrics.PassMicros.back().first, "analyze");
}

TEST(VerifyOne, FrontendErrorIsReportedNotFatal) {
  ProgramResult R = verifyOne({"bad.c", "int main( { return 0; }", {}});
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Diagnostics.empty());
  EXPECT_FALSE(R.Theorem1Checked);
}

} // namespace
