//===- qccbench/cpp/Inputs.cpp - Seeded workload inputs -------------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input the benchmark hands qcc. The seed chooses job order,
/// generated constants and request order — never sizes: the loop count,
/// the recursion depth, the library's function count and the pass
/// composition are fixed, so two seeds do the same amount of work.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "logic/Bound.h"
#include "logic/Logic.h"
#include "programs/Corpus.h"

#include <algorithm>

using namespace qcc;
using namespace qccbench;

const char *qccbench::jobKindName(JobKind K) {
  switch (K) {
  case JobKind::Corpus: return "corpus";
  case JobKind::Reopen: return "reopen";
  case JobKind::Wide: return "wide";
  case JobKind::Deep: return "deep";
  case JobKind::Edit: return "edit";
  }
  return "?";
}

namespace {

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

BenchJob makeJob(JobKind Kind, std::string Name, std::string Source) {
  BenchJob J;
  J.Kind = Kind;
  J.Job.Id = Name;
  J.Name = std::move(Name);
  J.Job.Source = std::move(Source);
  J.ProgramText = J.Job.Source;
  return J;
}

// The replay-heavy shapes of bench/BenchTraceStream.cpp: a flat loop of
// 250k calls at depth 2, and a 40k-frame non-tail recursion. K is the
// seeded constant; it changes no frame and no call count.

std::string wideSource(uint32_t K) {
  return "#define ITERS 250000\n"
         "typedef unsigned int u32;\n"
         "u32 acc = 0u;\n"
         "u32 tick(u32 n) { acc = acc + n + " + std::to_string(K) + "u;"
         " return acc; }\n"
         "int main() {\n"
         "  u32 i;\n"
         "  for (i = 0u; i < ITERS; i++) { tick(i); }\n"
         "  return (int)(acc & 0xffu);\n"
         "}\n";
}

std::string deepSource(uint32_t K) {
  return "#define DEPTH 40000\n"
         "typedef unsigned int u32;\n"
         "u32 down(u32 n) {\n"
         "  if (n == 0u) { return 0u; }\n"
         "  return down(n - 1u) + " + std::to_string(K) + "u;\n"
         "}\n"
         "int main() { return (int)(down(DEPTH) & 0xffu); }\n";
}

/// down(n) holds n callee frames below it: the recid specification of
/// Table 2, supplied as an interactively derived spec.
logic::FunctionContext deepSpecs() {
  logic::FunctionContext Specs;
  Specs["down"] = logic::FunctionSpec::balanced(logic::bMul(
      logic::bMetric("down"),
      logic::bNatTerm(logic::IntTermNode::var("n"))));
  return Specs;
}

// The serve-mix library TU: a driver chain main -> tick -> step -> base
// (Theorem-1 checked, replayed once per reachable set), plus 48 helpers
// h0..h47 chained by calls and unreachable from main. 52 functions.
constexpr unsigned Helpers = 48;
constexpr unsigned DriverConsts = 3;

std::string librarySource(const std::vector<uint32_t> &C) {
  auto N = [&C](unsigned I) { return std::to_string(C[I]) + "u"; };
  std::string S = "#define ITERS 2000\n"
                  "u32 base(u32 n) { return n + " + N(0) + "; }\n"
                  "u32 step(u32 n) { return base(n) + " + N(1) + "; }\n"
                  "u32 tick(u32 n) { return step(n) + " + N(2) + "; }\n"
                  "int main() {\n"
                  "  u32 acc = 0u;\n"
                  "  u32 i;\n"
                  "  for (i = 0u; i < ITERS; i++) { acc = acc + tick(i); }\n"
                  "  return (int)(acc & 0xffu);\n"
                  "}\n";
  S += "u32 h0(u32 n) { return n * " + N(DriverConsts) + " + 1u; }\n";
  for (unsigned I = 1; I != Helpers; ++I)
    S += "u32 h" + std::to_string(I) + "(u32 n) { return h" +
         std::to_string(I - 1) + "(n) + " + N(DriverConsts + I) + "; }\n";
  return S;
}

} // namespace

std::vector<BenchJob> qccbench::coldCorpusJobs(uint64_t Seed) {
  std::vector<BenchJob> Out;
  for (batch::BatchJob &J : batch::corpusJobs()) {
    BenchJob B;
    B.Name = J.Id;
    B.ProgramText = J.Source;
    B.Job = std::move(J);
    Out.push_back(std::move(B));
  }
  Rng R(Seed);
  shuffle(Out, R);
  return Out;
}

std::vector<BenchJob> qccbench::replayHeavyJobs(uint64_t Seed,
                                                bool Canonical) {
  Rng R(Seed ^ 0x5eed0001);
  uint32_t KWide = Canonical ? 1 : 1 + static_cast<uint32_t>(R.below(999));
  uint32_t KDeep = Canonical ? 1 : 1 + static_cast<uint32_t>(R.below(999));
  std::vector<BenchJob> Out;
  Out.push_back(makeJob(JobKind::Wide, "wide", wideSource(KWide)));
  Out.push_back(makeJob(JobKind::Deep, "deep", deepSource(KDeep)));
  Out.back().Job.Options.SeededSpecs = deepSpecs();
  if (!Canonical)
    shuffle(Out, R);
  return Out;
}

ServeInputs::ServeInputs(uint64_t Seed, unsigned Connections) : Seed(Seed) {
  Rng R(Seed ^ 0x5eed0002);
  for (unsigned I = 0; I != DriverConsts + Helpers; ++I)
    BaseConsts.push_back(1 + static_cast<uint32_t>(R.below(999)));
  for (unsigned C = 0; C != Connections; ++C)
    EditFirst.push_back(R.below(2) == 0);
}

BenchJob ServeInputs::base() const {
  return makeJob(JobKind::Edit, "lib.c", librarySource(BaseConsts));
}

BenchJob ServeInputs::canonicalBase() {
  std::vector<uint32_t> C;
  for (unsigned I = 0; I != DriverConsts + Helpers; ++I)
    C.push_back(I + 1);
  return makeJob(JobKind::Edit, "lib.c", librarySource(C));
}

bool ServeInputs::isEdit(unsigned Conn, unsigned Index) const {
  return (Index % 2 == 0) == EditFirst[Conn];
}

BenchJob ServeInputs::request(unsigned Conn, unsigned Index) const {
  Rng R(Seed * 0x100000001b3ull + Conn * 0x9e3779b9ull + Index);
  unsigned Serial = Index * static_cast<unsigned>(EditFirst.size()) + Conn;
  if (isEdit(Conn, Index)) {
    // One helper gets a constant no earlier request used: far above the
    // base constants (< 1000) and unique per (connection, index).
    std::vector<uint32_t> C = BaseConsts;
    C[DriverConsts + R.below(Helpers)] =
        100000 + 1000 * Serial + static_cast<uint32_t>(Seed % 1000);
    return makeJob(JobKind::Edit, "lib.c", librarySource(C));
  }
  const std::vector<programs::CorpusProgram> &T1 = programs::table1Corpus();
  const programs::CorpusProgram &P = T1[R.below(T1.size())];
  // A comment changes the job's content key but not the program.
  BenchJob J = makeJob(JobKind::Reopen, P.Id,
                       P.Source + "\n/* reopen " + std::to_string(Seed) +
                           ":" + std::to_string(Serial) + " */\n");
  J.ProgramText = P.Source;
  return J;
}

std::vector<BenchJob> ServeInputs::reopens(unsigned Conn,
                                           unsigned Count) const {
  std::vector<BenchJob> Out;
  for (unsigned I = 0; I != Count; ++I)
    if (!isEdit(Conn, I))
      Out.push_back(request(Conn, I));
  return Out;
}
