//===- tests/ProofForestTest.cpp - Flat proof objects ---------------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
//
// The flat-derivation invariants the store and checker lean on:
//
//   * tree -> forest -> tree is the identity (node for node, printed
//     form and size included), and flat indices equal preorder indices;
//   * forest -> store bytes -> forest is the identity, and the forest
//     encoder emits byte-for-byte what the tree encoder emits;
//   * the forest checker accepts exactly what the tree checker accepts
//     and rejects hand-built unsound mutants in both forms;
//   * concurrent forest checking with a shared entailment memo is safe
//     (the TSan slice runs this under -DQCC_SANITIZE=thread);
//   * Derivation::size()/str() are iterative — derivations far deeper
//     than any C function body cannot blow the host stack.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "batch/ThreadPool.h"
#include "frontend/Frontend.h"
#include "logic/Forest.h"
#include "store/Serialize.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace qcc;
using namespace qcc::logic;

namespace {

clight::Program mustParse(const std::string &Src) {
  DiagnosticEngine D;
  auto P = frontend::parseProgram(Src, D);
  EXPECT_TRUE(P) << D.str();
  return P ? std::move(*P) : clight::Program{};
}

/// A program exercising every derivation rule the analyzer emits: calls
/// (balanced), sequences, branches (both max and ite joins), loops,
/// assignment substitution, returns, and an external call.
const char *RichSource = R"(
extern void print(int);
u32 seed = 1;
u32 random() { seed = (seed * 1664525) + 1013904223; return seed; }
void leaf() { }
void mid() { leaf(); }
u32 work(u32 n) {
  u32 i, acc = 0;
  for (i = 0; i < n; i++) {
    if (i % 2 == 0) { mid(); } else { leaf(); }
    acc = acc + i;
  }
  return acc;
}
int main() {
  u32 r;
  print(1);
  r = work(17);
  if (r > 100) { mid(); } else { leaf(); }
  return 0;
}
)";

struct Analyzed {
  clight::Program P;
  analysis::AnalysisResult R;
};

Analyzed analyzeRich() {
  Analyzed A;
  A.P = mustParse(RichSource);
  DiagnosticEngine D;
  A.R = analysis::analyzeProgram(A.P, D);
  EXPECT_FALSE(D.hasErrors()) << D.str();
  EXPECT_FALSE(A.R.Bounds.empty());
  return A;
}

//===----------------------------------------------------------------------===//
// Tree <-> forest round trips
//===----------------------------------------------------------------------===//

TEST(ProofForest, TreeForestTreeIsIdentity) {
  Analyzed A = analyzeRich();
  for (const auto &[Name, FB] : A.R.Bounds) {
    DerivationForest Fo;
    uint32_t RootIdx = Fo.addRoot(Name, FB.Spec, *FB.Body);
    const DerivationForest::Root &Root = Fo.roots()[RootIdx];
    EXPECT_EQ(Root.End - Root.Node, FB.Body->size());
    FunctionBound Back = Fo.toFunctionBound(RootIdx);
    ASSERT_TRUE(Back.Body);
    EXPECT_EQ(Back.Function, Name);
    EXPECT_EQ(Back.Body->size(), FB.Body->size());
    EXPECT_EQ(Back.Body->str(), FB.Body->str());
    EXPECT_EQ(Back.Spec.Pre->str(), FB.Spec.Pre->str());
    EXPECT_EQ(Back.Spec.Post->str(), FB.Spec.Post->str());
  }
}

TEST(ProofForest, AnalyzerForestMatchesTreeBounds) {
  // The analyzer's own forest (what it checked and what the store
  // serializes) holds exactly the fresh bounds, root for root.
  Analyzed A = analyzeRich();
  ASSERT_EQ(A.R.Forest.roots().size(), A.R.Bounds.size());
  for (uint32_t RI = 0; RI != A.R.Forest.roots().size(); ++RI) {
    const DerivationForest::Root &Root = A.R.Forest.roots()[RI];
    auto It = A.R.Bounds.find(Root.Function);
    ASSERT_NE(It, A.R.Bounds.end());
    EXPECT_EQ(A.R.Forest.toFunctionBound(RI).Body->str(),
              It->second.Body->str());
  }
  EXPECT_EQ(A.R.proofNodeCount(), [&] {
    uint64_t N = 0;
    for (const auto &[Name, FB] : A.R.Bounds)
      N += FB.Body->size();
    return N;
  }());
}

TEST(ProofForest, FlatIndexMatchesPreorderNodeAt) {
  Analyzed A = analyzeRich();
  const FunctionBound &FB = A.R.Bounds.begin()->second;
  DerivationForest Fo;
  uint32_t RootIdx = Fo.addRoot(FB.Function, FB.Spec, *FB.Body);
  const DerivationForest::Root &Root = Fo.roots()[RootIdx];
  for (uint32_t Off = 0; Off != Root.End - Root.Node; ++Off) {
    Derivation *N = FB.Body->nodeAt(Off);
    ASSERT_NE(N, nullptr);
    EXPECT_EQ(Fo.rule(Root.Node + Off), N->R);
    EXPECT_EQ(Fo.stmt(Root.Node + Off), N->S);
    EXPECT_EQ(Fo.childCount(Root.Node + Off), N->Children.size());
  }
}

//===----------------------------------------------------------------------===//
// Store bytes
//===----------------------------------------------------------------------===//

TEST(ProofForest, EncodersAgreeByteForByte) {
  Analyzed A = analyzeRich();
  std::string Tree = store::encodeProofs(A.R.Gamma, A.R.Bounds, A.P);
  std::string Flat = store::encodeProofsForest(A.R.Gamma, A.R.Forest, A.P);
  ASSERT_FALSE(Tree.empty());
  EXPECT_EQ(Tree, Flat);
}

TEST(ProofForest, ForestStoreBytesForestIsIdentity) {
  Analyzed A = analyzeRich();
  std::string Blob = store::encodeProofsForest(A.R.Gamma, A.R.Forest, A.P);
  ASSERT_FALSE(Blob.empty());
  store::ProofForest PF;
  ASSERT_TRUE(store::decodeProofsForest(Blob, &A.P, PF));
  ASSERT_EQ(PF.Forest.roots().size(), A.R.Forest.roots().size());
  // Decoded derivations match the originals node for node...
  for (uint32_t RI = 0; RI != PF.Forest.roots().size(); ++RI) {
    const DerivationForest::Root &Root = PF.Forest.roots()[RI];
    auto It = A.R.Bounds.find(Root.Function);
    ASSERT_NE(It, A.R.Bounds.end());
    EXPECT_EQ(PF.Forest.toFunctionBound(RI).Body->str(),
              It->second.Body->str());
  }
  // ...and re-encoding reproduces the exact bytes.
  EXPECT_EQ(store::encodeProofsForest(PF.Gamma, PF.Forest, A.P), Blob);
}

TEST(ProofForest, ReusedRecordSplicesByteIdentically) {
  // Encoding with one function served as a raw spliced record must equal
  // encoding everything fresh: the zero-copy warm path is invisible in
  // the bytes.
  Analyzed A = analyzeRich();
  std::string AllFresh = store::encodeProofs(A.R.Gamma, A.R.Bounds, A.P);

  const std::string Victim = A.R.Bounds.begin()->first;
  const FunctionBound &FB = A.R.Bounds.at(Victim);
  const clight::Function *F = A.P.findFunction(Victim);
  ASSERT_NE(F, nullptr);
  std::vector<const clight::Stmt *> Stmts =
      store::preorderStatements(F->Body.get());
  std::map<const clight::Stmt *, uint32_t> Index;
  for (uint32_t I = 0; I != Stmts.size(); ++I)
    Index[Stmts[I]] = I;
  store::ByteWriter W;
  store::writeSpec(W, FB.Spec);
  ASSERT_TRUE(store::writeDerivation(W, *FB.Body, Index));
  std::string Record = W.take();

  DerivationForest Rest;
  for (const auto &[Name, B] : A.R.Bounds)
    if (Name != Victim)
      Rest.addRoot(Name, B.Spec, *B.Body);
  std::map<std::string, const std::string *> Reused{{Victim, &Record}};
  EXPECT_EQ(store::encodeProofsForest(A.R.Gamma, Rest, A.P, &Reused),
            AllFresh);
}

//===----------------------------------------------------------------------===//
// Checker agreement
//===----------------------------------------------------------------------===//

TEST(ProofForest, ForestCheckerAgreesWithTreeChecker) {
  Analyzed A = analyzeRich();
  EntailOptions Opt;
  Opt.SymbolicOnly = true;
  for (const auto &[Name, FB] : A.R.Bounds) {
    ProofChecker TreeChecker(A.P, &A.R.Gamma, Opt);
    DiagnosticEngine TD;
    EXPECT_TRUE(TreeChecker.checkFunctionBound(FB, TD)) << TD.str();

    DerivationForest Fo;
    uint32_t RootIdx = Fo.addRoot(Name, FB.Spec, *FB.Body);
    ProofChecker ForestChecker(A.P, &A.R.Gamma, Opt);
    DiagnosticEngine FD;
    EXPECT_TRUE(ForestChecker.checkFunctionBound(Fo, RootIdx, FD))
        << FD.str();
  }
}

TEST(ProofForest, BothCheckersRejectHandMutants) {
  Analyzed A = analyzeRich();
  EntailOptions Opt;
  Opt.SymbolicOnly = true;
  auto BothReject = [&](const FunctionBound &Mutant) {
    ProofChecker TreeChecker(A.P, &A.R.Gamma, Opt);
    DiagnosticEngine TD;
    bool TreeAccepts = TreeChecker.checkFunctionBound(Mutant, TD);
    DerivationForest Fo;
    uint32_t RootIdx = Fo.addRoot(Mutant.Function, Mutant.Spec, *Mutant.Body);
    ProofChecker ForestChecker(A.P, &A.R.Gamma, Opt);
    DiagnosticEngine FD;
    bool ForestAccepts = ForestChecker.checkFunctionBound(Fo, RootIdx, FD);
    EXPECT_FALSE(TreeAccepts);
    EXPECT_FALSE(ForestAccepts);
    // And they agree with each other, accepted or not.
    EXPECT_EQ(TreeAccepts, ForestAccepts);
  };

  // 'main' calls functions, so it has nonzero potential to corrupt.
  const FunctionBound &Original = A.R.Bounds.at("main");

  // Mutant 1: claim the cheapest possible spec.
  FunctionBound SpecShrunk{Original.Function, FunctionSpec::balanced(bZero()),
                           Original.Body->clone()};
  BothReject(SpecShrunk);

  // Mutant 2: zero the root precondition.
  FunctionBound PreZeroed{Original.Function, Original.Spec,
                          Original.Body->clone()};
  PreZeroed.Body->Pre = bZero();
  BothReject(PreZeroed);

  // Mutant 3: drop the root's children (a composite rule with no
  // premises proves nothing).
  FunctionBound Childless{Original.Function, Original.Spec,
                          Original.Body->clone()};
  ASSERT_FALSE(Childless.Body->Children.empty());
  Childless.Body->Children.clear();
  BothReject(Childless);
}

//===----------------------------------------------------------------------===//
// Concurrency (the TSan target)
//===----------------------------------------------------------------------===//

TEST(ProofForest, ParallelForestCheckingWithSharedMemoIsRaceFree) {
  Analyzed A = analyzeRich();
  EntailOptions Opt;
  Opt.SymbolicOnly = true;
  EntailMemo Memo;
  // One checker, one memo, every root checked concurrently and
  // repeatedly from pool workers: distinct roots touch disjoint node
  // spans, the bound table is read-only after building, and the memo
  // takes its own locks.
  ProofChecker Checker(A.P, &A.R.Gamma, Opt);
  Checker.setMemo(&Memo);
  batch::ThreadPool Pool(4);
  constexpr unsigned Repeats = 8;
  size_t NumRoots = A.R.Forest.roots().size();
  std::atomic<unsigned> Accepted{0};
  Pool.parallelFor(NumRoots * Repeats, [&](size_t I) {
    DiagnosticEngine D;
    if (Checker.checkFunctionBound(A.R.Forest,
                                   static_cast<uint32_t>(I % NumRoots), D))
      Accepted.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Accepted.load(), NumRoots * Repeats);
  // The shared memo actually served queries (misses on first touch, hits
  // on the repeats) — the speedup mechanism is live, not vestigial.
  EXPECT_GT(Memo.hits(), 0u);
  EXPECT_GT(Memo.misses(), 0u);
}

//===----------------------------------------------------------------------===//
// Deep derivations (the iterative size()/str() fix)
//===----------------------------------------------------------------------===//

DerivationPtr deepChain(size_t Depth) {
  auto Leaf = std::make_unique<Derivation>();
  Leaf->R = Rule::Skip;
  Leaf->Pre = bZero();
  Leaf->Post = PostCondition{bZero(), bZero(), bZero()};
  DerivationPtr Chain = std::move(Leaf);
  for (size_t I = 1; I != Depth; ++I) {
    auto N = std::make_unique<Derivation>();
    N->R = Rule::Conseq;
    N->Pre = bZero();
    N->Post = PostCondition{bZero(), bZero(), bZero()};
    N->Children.push_back(std::move(Chain));
    Chain = std::move(N);
  }
  return Chain;
}

/// Iterative teardown: ~Derivation recurses the chain, so pop children
/// onto a worklist instead of letting the destructor walk it.
void drainChain(DerivationPtr Chain) {
  std::vector<DerivationPtr> Teardown;
  Teardown.push_back(std::move(Chain));
  while (!Teardown.empty()) {
    DerivationPtr D = std::move(Teardown.back());
    Teardown.pop_back();
    for (DerivationPtr &C : D->Children)
      Teardown.push_back(std::move(C));
  }
}

TEST(ProofForest, DeepDerivationSizeIsIterative) {
  // Deep enough that the old recursive size() would exhaust a default
  // 8 MiB stack.
  constexpr size_t Depth = 300000;
  DerivationPtr Chain = deepChain(Depth);
  EXPECT_EQ(Chain->size(), Depth);
  drainChain(std::move(Chain));
}

TEST(ProofForest, DeepDerivationStrIsIterative) {
  // str() output grows quadratically with depth (indentation), so this
  // chain is shallower — still far past where the old recursion's fat
  // printing frames died.
  constexpr size_t Depth = 20000;
  DerivationPtr Chain = deepChain(Depth);
  std::string S = Chain->str();
  EXPECT_FALSE(S.empty());
  drainChain(std::move(Chain));
}

} // namespace
