//===- bench/BenchProofCheck.cpp - Flat vs tree proof checking ------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the flat proof representation buys at the checker, over every
/// fresh bound of the full evaluation corpus:
///
///   1. tree-serial    — the pre-forest baseline: one checker per
///      function with its own copy of the context, recursive descent
///      over the pointer-chasing Derivation tree, no entailment memo,
///   2. forest-serial  — one borrowed-context checker per program
///      walking the contiguous DerivationForest spans, entailment
///      queries memoized on interned-bound-id pairs,
///   3. forest-pooled  — the same flat walk with independent function
///      roots fanned out across the thread pool (the daemon's
///      serving configuration).
///
/// Every phase must accept every bound and visit the identical number of
/// derivation nodes — the verdict-parity invariant of DESIGN.md §5h —
/// and the acceptance bar is a >= 2x best-wall speedup of forest-pooled
/// over tree-serial on a cold corpus pass (the memo starts empty each
/// rep; only the pool threads persist, as they do in qccd).
///
/// Writes BENCH_proofcheck.json (path overridable as argv[1]).
///
//===----------------------------------------------------------------------===//

#include "batch/Batch.h"
#include "batch/ThreadPool.h"
#include "driver/Compiler.h"
#include "logic/Checker.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace qcc;

namespace {

constexpr unsigned Reps = 5;

/// One compiled corpus program with its fresh bounds in both forms.
struct Compiled {
  std::string Id;
  driver::Compilation C;
};

/// One checkable unit: a forest root (and, via the function name, the
/// equivalent tree bound) of one compiled program.
struct Item {
  uint32_t Prog;
  uint32_t Root;
};

struct Phase {
  std::string Name;
  uint64_t BestWallMicros = ~0ull;
  uint64_t Accepted = 0;
  uint64_t NodesVisited = 0;
  uint64_t MemoHits = 0;
  uint64_t MemoMisses = 0;
  bool AllOk = false;
};

uint64_t sumNodes(const logic::ProofChecker &Checker) {
  uint64_t Total = 0;
  for (uint64_t N : Checker.ruleNodeCounts())
    Total += N;
  return Total;
}

void record(Phase &Out, uint64_t Micros, uint64_t Accepted, size_t Items,
            uint64_t Nodes, const logic::EntailMemo *Memo) {
  Out.BestWallMicros = std::min(Out.BestWallMicros, Micros);
  Out.Accepted = Accepted;
  Out.NodesVisited = Nodes;
  Out.AllOk = Accepted == Items;
  if (Memo) {
    Out.MemoHits = Memo->hits();
    Out.MemoMisses = Memo->misses();
  }
}

/// Baseline: the shape of the analyzer before DESIGN.md §5h — a fresh
/// checker per function (copying Gamma each time), recursive tree walk,
/// every entailment decided from scratch.
void runTreeSerial(const std::vector<Compiled> &Corpus,
                   const std::vector<Item> &Items,
                   const logic::EntailOptions &EO, Phase &Out) {
  uint64_t Accepted = 0, Nodes = 0;
  auto Start = std::chrono::steady_clock::now();
  for (const Item &It : Items) {
    const driver::Compilation &C = Corpus[It.Prog].C;
    const logic::DerivationForest::Root &R = C.Bounds.Forest.roots()[It.Root];
    const logic::FunctionBound &FB = C.Bounds.Bounds.at(R.Function);
    logic::ProofChecker Checker(C.Clight, C.Bounds.Gamma, EO);
    DiagnosticEngine D;
    if (Checker.checkFunctionBound(FB, D))
      ++Accepted;
    Nodes += sumNodes(Checker);
  }
  auto Micros = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  record(Out, static_cast<uint64_t>(Micros), Accepted, Items.size(), Nodes,
         nullptr);
}

/// Flat form, single thread: borrowed-context checkers, contiguous span
/// walks, one shared entailment memo (cold at rep start).
void runForestSerial(const std::vector<Compiled> &Corpus,
                     const std::vector<Item> &Items,
                     const logic::EntailOptions &EO, Phase &Out) {
  logic::EntailMemo Memo;
  std::vector<std::unique_ptr<logic::ProofChecker>> Checkers;
  for (const Compiled &P : Corpus) {
    Checkers.push_back(std::make_unique<logic::ProofChecker>(
        P.C.Clight, &P.C.Bounds.Gamma, EO));
    Checkers.back()->setMemo(&Memo);
  }
  uint64_t Accepted = 0;
  auto Start = std::chrono::steady_clock::now();
  for (const Item &It : Items) {
    const driver::Compilation &C = Corpus[It.Prog].C;
    DiagnosticEngine D;
    if (Checkers[It.Prog]->checkFunctionBound(C.Bounds.Forest, It.Root, D))
      ++Accepted;
  }
  auto Micros = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  uint64_t Nodes = 0;
  for (const auto &Checker : Checkers)
    Nodes += sumNodes(*Checker);
  record(Out, static_cast<uint64_t>(Micros), Accepted, Items.size(), Nodes,
         &Memo);
}

/// Flat form on the pool: independent roots checked concurrently, one
/// checker per program shared across workers (its counters are atomic
/// and the memo locks internally), as qccd serves warm proofs.
void runForestPooled(const std::vector<Compiled> &Corpus,
                     const std::vector<Item> &Items,
                     const logic::EntailOptions &EO,
                     batch::ThreadPool &Pool, Phase &Out) {
  logic::EntailMemo Memo;
  std::vector<std::unique_ptr<logic::ProofChecker>> Checkers;
  for (const Compiled &P : Corpus) {
    Checkers.push_back(std::make_unique<logic::ProofChecker>(
        P.C.Clight, &P.C.Bounds.Gamma, EO));
    Checkers.back()->setMemo(&Memo);
  }
  std::vector<uint8_t> Verdicts(Items.size(), 0);
  auto Start = std::chrono::steady_clock::now();
  Pool.parallelFor(Items.size(), [&](size_t I) {
    const Item &It = Items[I];
    const driver::Compilation &C = Corpus[It.Prog].C;
    DiagnosticEngine D;
    Verdicts[I] =
        Checkers[It.Prog]->checkFunctionBound(C.Bounds.Forest, It.Root, D)
            ? 1
            : 0;
  });
  auto Micros = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  uint64_t Accepted = 0, Nodes = 0;
  for (uint8_t V : Verdicts)
    Accepted += V;
  for (const auto &Checker : Checkers)
    Nodes += sumNodes(*Checker);
  record(Out, static_cast<uint64_t>(Micros), Accepted, Items.size(), Nodes,
         &Memo);
}

void printPhase(const Phase &P, size_t Items) {
  printf("  %-16s %9.3f ms   %3llu/%zu accepted   %8llu nodes   "
         "%llu/%llu memo hits%s\n",
         P.Name.c_str(), P.BestWallMicros / 1000.0,
         static_cast<unsigned long long>(P.Accepted), Items,
         static_cast<unsigned long long>(P.NodesVisited),
         static_cast<unsigned long long>(P.MemoHits),
         static_cast<unsigned long long>(P.MemoHits + P.MemoMisses),
         P.AllOk ? "" : "   [NOT OK]");
}

void emitPhaseJson(FILE *J, const Phase &P, bool Last) {
  fprintf(J,
          "    {\n"
          "      \"name\": \"%s\",\n"
          "      \"best_wall_ms\": %.3f,\n"
          "      \"accepted\": %llu,\n"
          "      \"nodes_visited\": %llu,\n"
          "      \"entail_memo_hits\": %llu,\n"
          "      \"entail_memo_misses\": %llu,\n"
          "      \"all_ok\": %s\n"
          "    }%s\n",
          P.Name.c_str(), P.BestWallMicros / 1000.0,
          static_cast<unsigned long long>(P.Accepted),
          static_cast<unsigned long long>(P.NodesVisited),
          static_cast<unsigned long long>(P.MemoHits),
          static_cast<unsigned long long>(P.MemoMisses),
          P.AllOk ? "true" : "false", Last ? "" : ",");
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = argc > 1 ? argv[1] : "BENCH_proofcheck.json";

  // Compile the corpus once (no translation validation: this bench
  // isolates proof checking, not the pipeline). Every compilation keeps
  // both representations of its fresh bounds: the Derivation trees in
  // Bounds and the flat spans in Forest.
  std::vector<Compiled> Corpus;
  for (batch::BatchJob &Job : batch::corpusJobs(/*ValidateTranslation=*/false)) {
    DiagnosticEngine D;
    auto C = driver::compile(Job.Source, D, Job.Options);
    if (!C) {
      fprintf(stderr, "bench_proof_check: %s does not compile: %s\n",
              Job.Id.c_str(), D.str().c_str());
      return 1;
    }
    Corpus.push_back(Compiled{Job.Id, std::move(*C)});
  }

  std::vector<Item> Items;
  for (uint32_t P = 0; P != Corpus.size(); ++P)
    for (uint32_t R = 0;
         R != Corpus[P].C.Bounds.Forest.roots().size(); ++R)
      Items.push_back(Item{P, R});

  logic::EntailOptions EO;
  EO.SymbolicOnly = true; // What the analyzer checked these bounds under.

  unsigned Threads =
      std::clamp(std::thread::hardware_concurrency(), 2u, 8u);
  batch::ThreadPool Pool(Threads); // Long-lived, like qccd's.

  printf("==== Proof checking: flat forests vs derivation trees "
         "(%zu bounds, %zu programs) ====\n\n",
         Items.size(), Corpus.size());

  Phase Tree{"tree-serial"}, Serial{"forest-serial"}, Pooled{"forest-pooled"};
  for (unsigned I = 0; I != Reps; ++I) {
    runTreeSerial(Corpus, Items, EO, Tree);
    runForestSerial(Corpus, Items, EO, Serial);
    runForestPooled(Corpus, Items, EO, Pool, Pooled);
  }

  printPhase(Tree, Items.size());
  printPhase(Serial, Items.size());
  printPhase(Pooled, Items.size());

  auto SpeedupOver = [&](const Phase &P) {
    return P.BestWallMicros ? static_cast<double>(Tree.BestWallMicros) /
                                  static_cast<double>(P.BestWallMicros)
                            : 0.0;
  };
  double SerialSpeedup = SpeedupOver(Serial);
  double PooledSpeedup = SpeedupOver(Pooled);

  // Verdict parity: every phase accepts every bound and visits the same
  // derivation nodes — the flat walk is bit-identical, just faster.
  bool Parity = Tree.AllOk && Serial.AllOk && Pooled.AllOk &&
                Tree.NodesVisited == Serial.NodesVisited &&
                Tree.NodesVisited == Pooled.NodesVisited;
  bool Ok = Parity && PooledSpeedup >= 2.0;

  printf("\nheadline: %.1fx pooled (%u threads), %.1fx serial; verdicts "
         "%s across %llu derivation nodes\n",
         PooledSpeedup, Threads, SerialSpeedup,
         Parity ? "identical" : "DIVERGED",
         static_cast<unsigned long long>(Tree.NodesVisited));

  if (FILE *J = fopen(JsonPath, "w")) {
    fprintf(J,
            "{\n"
            "  \"bench\": \"proofcheck\",\n"
            "  \"programs\": %zu,\n"
            "  \"bounds\": %zu,\n"
            "  \"reps\": %u,\n"
            "  \"pool_threads\": %u,\n"
            "  \"forest_serial_speedup\": %.2f,\n"
            "  \"forest_pooled_speedup\": %.2f,\n"
            "  \"verdict_parity\": %s,\n"
            "  \"acceptance\": %s,\n"
            "  \"phases\": [\n",
            Corpus.size(), Items.size(), Reps, Threads, SerialSpeedup,
            PooledSpeedup, Parity ? "true" : "false", Ok ? "true" : "false");
    emitPhaseJson(J, Tree, false);
    emitPhaseJson(J, Serial, false);
    emitPhaseJson(J, Pooled, true);
    fprintf(J, "  ]\n}\n");
    fclose(J);
    printf("wrote %s\n", JsonPath);
  } else {
    fprintf(stderr, "bench_proof_check: cannot write %s\n", JsonPath);
    return 1;
  }

  return Ok ? 0 : 1;
}
