//===- tests/StoreTest.cpp - Persistent store: format, corruption, LRU ----===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent verification store's contract, end to end:
///
///   * round-trip identity for every persisted record type (integer
///     terms, comparisons, bound expressions, specs, contexts, full
///     derivations, the ProgramResult record, and the entry image),
///   * corruption injection — truncation at every layer, a bit-flip
///     sweep over a real entry, zero-length and wrong-version files —
///     must always quarantine: never a crash, never a wrong verdict,
///   * golden fixtures under tests/store-corpus/ pin the byte format
///     (a change is a deliberate version bump, never an accident),
///   * LRU eviction order under a byte budget, with hits refreshing,
///   * the flock protocol under concurrent multi-process access,
///   * `--store-verify` proof re-checking, including tampered entries
///     whose *format* is valid but whose proofs do not cover the claims,
///   * the warm/cold acceptance criterion in separate processes: a warm
///     rerun serves every job from the store with byte-identical
///     deterministic metrics and zero fresh proof-checker nodes.
///
//===----------------------------------------------------------------------===//

#include "store/Store.h"

#include "batch/Batch.h"
#include "frontend/Frontend.h"
#include "logic/Checker.h"
#include "support/FailPoint.h"
#include "support/Supervision.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

using namespace qcc;
using namespace qcc::batch;
using namespace qcc::store;

namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Fixtures and helpers
//===----------------------------------------------------------------------===//

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

/// Scoped scratch directory; removed with everything in it on exit.
struct TempDir {
  std::string Path;
  TempDir() {
    std::string Template =
        (fs::temp_directory_path() / "qcc-store-XXXXXX").string();
    std::vector<char> Buf(Template.begin(), Template.end());
    Buf.push_back('\0');
    Path = mkdtemp(Buf.data());
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string sub(const std::string &Name) const {
    return (fs::path(Path) / Name).string();
  }
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void spill(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

BatchJob smallJob() { return {"small.c", SmallProgram, {}}; }

/// One real verified result, proof artifacts kept. Verified once and
/// reused: verification is the expensive part of these tests.
const ProgramResult &verifiedSmall() {
  static ProgramResult R =
      verifyOne(smallJob(), /*CheckTheorem1=*/false, nullptr,
                /*KeepProofArtifacts=*/true);
  EXPECT_TRUE(R.Ok) << R.Diagnostics;
  EXPECT_FALSE(R.ProofBlob.empty());
  return R;
}

JobKey smallKey() { return jobKey(smallJob(), /*CheckTheorem1=*/false); }

/// A handcrafted record with every field away from its default, so a
/// skipped field in the serializer cannot hide.
ProgramResult fullResult() {
  ProgramResult R;
  R.Id = "full/everything.c";
  R.Ok = true;
  R.Diagnostics = "warning: something quantitative\n";
  R.Bounds.push_back({"main", "M(main) + 24", 88});
  R.Bounds.push_back({"parametric", "M(parametric) + n * 4", std::nullopt});
  R.SkippedRecursive = {"rec1", "rec2"};
  R.Theorem1Checked = true;
  R.Theorem1Ok = true;
  R.Theorem1StackBytes = 84;
  R.Status = JobStatus::Ok;
  R.Stop = StopCause::None;
  R.Retries = 2;
  R.Metrics.PassMicros = {{"parse", 120}, {"lower-cminor", 9}};
  R.Metrics.ReplayedEvents = {{"clight-cminor", 4242}};
  R.Metrics.ProofNodes = 137;
  R.Metrics.TotalMicros = 4567;
  R.ProofBlob = "opaque-proof-bytes";
  return R;
}

/// Round-trip through an encode function and require re-encoded bytes to
/// be identical — the strongest identity check that needs no per-type
/// equality operator.
template <typename T, typename WriteFn, typename ReadFn>
void expectByteStableRoundTrip(const T &Value, WriteFn Write, ReadFn Read) {
  ByteWriter W;
  Write(W, Value);
  std::string Bytes = W.take();
  ByteReader R(Bytes);
  T Decoded{};
  ASSERT_TRUE(Read(R, Decoded));
  ASSERT_TRUE(R.done()) << "trailing bytes";
  ByteWriter W2;
  Write(W2, Decoded);
  EXPECT_EQ(Bytes, W2.bytes());
}

//===----------------------------------------------------------------------===//
// Serializer round trips — every persisted record type
//===----------------------------------------------------------------------===//

logic::IntTerm nestedTerm() {
  using logic::IntTermNode;
  return IntTermNode::divC(
      IntTermNode::add(
          IntTermNode::mul(IntTermNode::var("n", logic::VarSign::Signed),
                           IntTermNode::constant(3)),
          IntTermNode::sub(IntTermNode::var("hi"),
                           IntTermNode::var("lo'"))),
      2);
}

TEST(StoreSerialize, IntTermRoundTripIsByteStable) {
  logic::IntTerm T = nestedTerm();
  ByteWriter W;
  writeIntTerm(W, T);
  std::string Bytes = W.take();
  ByteReader R(Bytes);
  logic::IntTerm Decoded;
  ASSERT_TRUE(readIntTerm(R, Decoded));
  ASSERT_TRUE(R.done());
  EXPECT_EQ(T->str(), Decoded->str());
  ByteWriter W2;
  writeIntTerm(W2, Decoded);
  EXPECT_EQ(Bytes, W2.bytes());
}

TEST(StoreSerialize, CmpRoundTrip) {
  logic::Cmp C{nestedTerm(), logic::CmpRel::Le,
               logic::IntTermNode::constant(41)};
  expectByteStableRoundTrip(
      C, [](ByteWriter &W, const logic::Cmp &V) { writeCmp(W, V); },
      [](ByteReader &R, logic::Cmp &V) { return readCmp(R, V); });
}

/// A bound exercising every BoundExprNode kind at once.
logic::BoundExpr kitchenSinkBound() {
  using namespace logic;
  Cmp Guard{IntTermNode::var("beg"), CmpRel::Le, IntTermNode::var("end")};
  BoundExpr Log = bAdd(bLog2W(nestedTerm()),
                       bLog2C(IntTermNode::var("w")));
  BoundExpr Metric = bMul(bMetric("qsort"),
                          bAdd(bConst(ExtNat(1)), Log));
  BoundExpr Guarded = bGuard(Guard, bNatTerm(nestedTerm()));
  BoundExpr Branch = bIte(Guard, bScale(3, bMetric("f")), bBottom());
  return bMax(bAdd(Metric, Guarded), Branch);
}

TEST(StoreSerialize, BoundExprRoundTripCoversEveryKind) {
  logic::BoundExpr B = kitchenSinkBound();
  ByteWriter W;
  writeBound(W, B);
  std::string Bytes = W.take();
  ByteReader R(Bytes);
  logic::BoundExpr Decoded;
  ASSERT_TRUE(readBound(R, Decoded));
  ASSERT_TRUE(R.done());
  EXPECT_TRUE(logic::structurallyEqual(B, Decoded))
      << B->str() << " vs " << Decoded->str();
  ByteWriter W2;
  writeBound(W2, Decoded);
  EXPECT_EQ(Bytes, W2.bytes());
}

TEST(StoreSerialize, SpecAndContextRoundTrip) {
  using namespace logic;
  FunctionSpec S;
  S.Pre = kitchenSinkBound();
  S.Post = bConst(ExtNat(16));
  S.ResultFacts.push_back({IntTermNode::var("lo"), CmpRel::Le,
                           IntTermNode::var("$result")});
  expectByteStableRoundTrip(
      S, [](ByteWriter &W, const FunctionSpec &V) { writeSpec(W, V); },
      [](ByteReader &R, FunctionSpec &V) { return readSpec(R, V); });

  FunctionContext Gamma;
  Gamma["partition"] = S;
  Gamma["leaf"] = FunctionSpec::balanced(bConst(ExtNat(8)));
  expectByteStableRoundTrip(
      Gamma,
      [](ByteWriter &W, const FunctionContext &V) { writeContext(W, V); },
      [](ByteReader &R, FunctionContext &V) { return readContext(R, V); });
}

TEST(StoreSerialize, TruncationAtEveryPrefixIsRejectedNotCrashing) {
  ByteWriter W;
  writeBound(W, kitchenSinkBound());
  std::string Bytes = W.take();
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    ByteReader R(Bytes.data(), Len);
    logic::BoundExpr B;
    // Any strict prefix must fail: the format has no self-delimiting
    // shorter value sharing a prefix with a longer one.
    EXPECT_FALSE(readBound(R, B) && R.done()) << "prefix " << Len;
  }
}

TEST(StoreSerialize, DecodeDepthLimitStopsHostileNesting) {
  // A hostile writer can nest arbitrarily deep; the reader must bound
  // its recursion. 2 * MaxDecodeDepth nesting must decode false, not
  // overflow the stack. The bytes are built iteratively (an in-memory
  // tower that deep would already recurse in its own destructor).
  using logic::IntTermNode;
  std::string Bytes;
  {
    // An Add node on the wire is: kind, value, name, sign, [1, lhs],
    // [1, rhs] — nesting on Rhs makes each level a flat append.
    ByteWriter W;
    auto WriteConstHeader = [&W]() {
      W.u8(static_cast<uint8_t>(IntTermNode::Kind::Const));
      W.i64(1);
      W.str("");
      W.u8(0);
      W.boolean(false);
      W.boolean(false);
    };
    auto WriteAddOpen = [&W, &WriteConstHeader]() {
      W.u8(static_cast<uint8_t>(IntTermNode::Kind::Add));
      W.i64(0);
      W.str("");
      W.u8(0);
      W.boolean(true); // lhs present: the constant
      WriteConstHeader();
      W.boolean(true); // rhs present: the next level
    };
    for (unsigned I = 0; I != 2 * MaxDecodeDepth; ++I)
      WriteAddOpen();
    WriteConstHeader();
    Bytes = W.take();
  }
  ByteReader R(Bytes);
  logic::IntTerm Decoded;
  EXPECT_FALSE(readIntTerm(R, Decoded));
}

//===----------------------------------------------------------------------===//
// Proof blobs from real verification
//===----------------------------------------------------------------------===//

TEST(StoreProofs, BlobFromRealVerificationReattachesAndRechecks) {
  const ProgramResult &R = verifiedSmall();
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(SmallProgram, Diags);
  ASSERT_TRUE(P.has_value());
  ProofArtifacts PA;
  ASSERT_TRUE(decodeProofs(R.ProofBlob, &*P, PA));
  EXPECT_FALSE(PA.Gamma.empty());
  ASSERT_FALSE(PA.Bounds.empty());
  logic::EntailOptions EO;
  EO.SymbolicOnly = true;
  logic::ProofChecker Checker(*P, PA.Gamma, EO);
  for (const logic::FunctionBound &FB : PA.Bounds) {
    ASSERT_NE(FB.Body, nullptr);
    EXPECT_NE(FB.Body->S, nullptr) << FB.Function << ": not re-attached";
    DiagnosticEngine CheckDiags;
    EXPECT_TRUE(Checker.checkFunctionBound(FB, CheckDiags))
        << FB.Function << " no longer checks after a store round trip";
  }
}

TEST(StoreProofs, BlobReencodesBitIdentically) {
  const ProgramResult &R = verifiedSmall();
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(SmallProgram, Diags);
  ASSERT_TRUE(P.has_value());
  ProofArtifacts PA;
  ASSERT_TRUE(decodeProofs(R.ProofBlob, &*P, PA));
  std::map<std::string, logic::FunctionBound> Bounds;
  for (logic::FunctionBound &FB : PA.Bounds) {
    std::string Name = FB.Function;
    Bounds.emplace(std::move(Name), std::move(FB));
  }
  EXPECT_EQ(encodeProofs(PA.Gamma, Bounds, *P), R.ProofBlob);
}

TEST(StoreProofs, DecodeWithoutProgramKeepsStatementsNull) {
  const ProgramResult &R = verifiedSmall();
  ProofArtifacts PA;
  ASSERT_TRUE(decodeProofs(R.ProofBlob, nullptr, PA));
  for (const logic::FunctionBound &FB : PA.Bounds)
    EXPECT_EQ(FB.Body->S, nullptr);
}

TEST(StoreProofs, CorruptedBlobNeverCrashes) {
  const ProgramResult &Base = verifiedSmall();
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(SmallProgram, Diags);
  ASSERT_TRUE(P.has_value());
  for (size_t Pos = 0; Pos < Base.ProofBlob.size(); Pos += 13) {
    std::string Blob = Base.ProofBlob;
    Blob[Pos] = static_cast<char>(Blob[Pos] ^ (1 << (Pos % 8)));
    ProofArtifacts PA;
    // No checksum at this layer (the store entry carries it), so a flip
    // may still decode; it must never crash, and whatever decodes must
    // be safely checkable.
    if (decodeProofs(Blob, &*P, PA)) {
      logic::EntailOptions EO;
      EO.SymbolicOnly = true;
      logic::ProofChecker Checker(*P, PA.Gamma, EO);
      for (const logic::FunctionBound &FB : PA.Bounds) {
        DiagnosticEngine D2;
        Checker.checkFunctionBound(FB, D2); // either verdict; no crash
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// The ProgramResult record and the entry image
//===----------------------------------------------------------------------===//

TEST(StoreEntry, ResultRecordRoundTripsEveryField) {
  ProgramResult R = fullResult();
  ByteWriter W;
  writeResult(W, R);
  std::string Bytes = W.take();
  ByteReader Reader(Bytes);
  ProgramResult D;
  ASSERT_TRUE(readResult(Reader, D));
  ASSERT_TRUE(Reader.done());
  EXPECT_EQ(D.Id, R.Id);
  EXPECT_EQ(D.Ok, R.Ok);
  EXPECT_EQ(D.Diagnostics, R.Diagnostics);
  ASSERT_EQ(D.Bounds.size(), 2u);
  EXPECT_EQ(D.Bounds[0].Function, "main");
  EXPECT_EQ(D.Bounds[0].SymbolicBound, "M(main) + 24");
  EXPECT_EQ(D.Bounds[0].ConcreteBytes, std::optional<uint64_t>(88));
  EXPECT_EQ(D.Bounds[1].ConcreteBytes, std::nullopt);
  EXPECT_EQ(D.SkippedRecursive, R.SkippedRecursive);
  EXPECT_EQ(D.Theorem1Checked, R.Theorem1Checked);
  EXPECT_EQ(D.Theorem1Ok, R.Theorem1Ok);
  EXPECT_EQ(D.Theorem1StackBytes, R.Theorem1StackBytes);
  EXPECT_EQ(D.Status, R.Status);
  EXPECT_EQ(D.Stop, R.Stop);
  EXPECT_EQ(D.Retries, R.Retries);
  EXPECT_EQ(D.Metrics.PassMicros, R.Metrics.PassMicros);
  EXPECT_EQ(D.Metrics.ReplayedEvents, R.Metrics.ReplayedEvents);
  EXPECT_EQ(D.Metrics.ProofNodes, R.Metrics.ProofNodes);
  EXPECT_EQ(D.Metrics.TotalMicros, R.Metrics.TotalMicros);
  EXPECT_EQ(D.ProofBlob, R.ProofBlob);
}

TEST(StoreEntry, EntryImageRoundTripsAndHeaderIsAsDocumented) {
  JobKey Key{0x1122334455667788ull, 0x99aabbccddeeff00ull};
  std::string Bytes = VerificationStore::encodeEntry(Key, fullResult());
  ASSERT_GE(Bytes.size(), VerificationStore::HeaderSize);
  EXPECT_EQ(Bytes.compare(0, 8, "QCCSTORE"), 0);
  // Version little-endian at offset 8.
  EXPECT_EQ(static_cast<uint8_t>(Bytes[8]), VerificationStore::FormatVersion);
  JobKey Decoded;
  ProgramResult R;
  ASSERT_TRUE(VerificationStore::decodeEntry(Bytes, Decoded, R));
  EXPECT_EQ(Decoded, Key);
  EXPECT_EQ(R.Id, "full/everything.c");
  EXPECT_EQ(VerificationStore::encodeEntry(Decoded, R), Bytes);
}

TEST(StoreEntry, DecodeRejectsTamperedImages) {
  JobKey Key{1, 2};
  std::string Bytes = VerificationStore::encodeEntry(Key, fullResult());
  JobKey K;
  ProgramResult R;
  EXPECT_FALSE(VerificationStore::decodeEntry("", K, R));
  for (size_t Len : {size_t(1), size_t(8), size_t(31), size_t(32),
                     Bytes.size() / 2, Bytes.size() - 1})
    EXPECT_FALSE(
        VerificationStore::decodeEntry(Bytes.substr(0, Len), K, R))
        << "truncated to " << Len;
  {
    std::string V = Bytes;
    V[8] = 2; // future format version
    EXPECT_FALSE(VerificationStore::decodeEntry(V, K, R));
  }
  {
    std::string C = Bytes;
    C[16] = static_cast<char>(C[16] ^ 0x01); // checksum
    EXPECT_FALSE(VerificationStore::decodeEntry(C, K, R));
  }
  {
    std::string P = Bytes;
    P.back() = static_cast<char>(P.back() ^ 0x80); // payload
    EXPECT_FALSE(VerificationStore::decodeEntry(P, K, R));
  }
}

//===----------------------------------------------------------------------===//
// Golden fixtures: the byte format is pinned
//===----------------------------------------------------------------------===//

#ifndef QCC_STORE_CORPUS_DIR
#define QCC_STORE_CORPUS_DIR "tests/store-corpus"
#endif

/// The golden fixtures are built from fully handcrafted values (no
/// analyzer or timing input), so their bytes are a pure function of the
/// serializer. Regenerate deliberately with
///   QCC_REGEN_STORE_CORPUS=1 ./store_test --gtest_filter='StoreGolden.*'
/// and review the diff — a changed fixture IS a format change.
JobKey goldenFailedKey() { return {0x1111222233334444ull, 0x5555666677778888ull}; }

ProgramResult goldenFailedResult() {
  ProgramResult R;
  R.Id = "golden/failed.c";
  R.Ok = false;
  R.Diagnostics = "error: expected ';' before '}'\n";
  R.Status = JobStatus::Failed;
  R.Stop = StopCause::None;
  R.Retries = 0;
  R.Metrics.PassMicros = {{"parse", 100}};
  R.Metrics.TotalMicros = 100;
  return R;
}

JobKey goldenOkKey() { return {0xdeadbeefcafef00dull, 0x0123456789abcdefull}; }

ProgramResult goldenOkResult() {
  ProgramResult R = fullResult();
  R.Id = "golden/ok.c";
  // A handcrafted proof section: context plus an empty bound map (the
  // derivation wire format is pinned separately by the round-trip tests
  // against real analyzer output).
  logic::FunctionContext Gamma;
  Gamma["leaf"] = logic::FunctionSpec::balanced(logic::bConst(ExtNat(8)));
  logic::FunctionSpec Main;
  Main.Pre = kitchenSinkBound();
  Main.Post = logic::bConst(ExtNat(0));
  Gamma["main"] = Main;
  ByteWriter W;
  writeContext(W, Gamma);
  W.u64(0); // no derived bounds
  R.ProofBlob = W.take();
  return R;
}

TEST(StoreGolden, FixturesAreBitExact) {
  const std::string Dir = QCC_STORE_CORPUS_DIR;
  struct Fixture {
    const char *Name;
    JobKey Key;
    ProgramResult Result;
  };
  const Fixture Fixtures[] = {
      {"failed-entry.qcs", goldenFailedKey(), goldenFailedResult()},
      {"ok-entry.qcs", goldenOkKey(), goldenOkResult()},
  };
  const bool Regen = std::getenv("QCC_REGEN_STORE_CORPUS") != nullptr;
  for (const Fixture &F : Fixtures) {
    std::string Path = (fs::path(Dir) / F.Name).string();
    std::string Expected = VerificationStore::encodeEntry(F.Key, F.Result);
    if (Regen) {
      spill(Path, Expected);
      continue;
    }
    std::string OnDisk = slurp(Path);
    ASSERT_FALSE(OnDisk.empty()) << Path << " missing — regenerate with "
                                 << "QCC_REGEN_STORE_CORPUS=1";
    EXPECT_EQ(OnDisk, Expected)
        << F.Name << ": the on-disk format changed. If intentional, bump "
        << "VerificationStore::FormatVersion and regenerate the corpus.";
    JobKey Key;
    ProgramResult R;
    ASSERT_TRUE(VerificationStore::decodeEntry(OnDisk, Key, R)) << F.Name;
    EXPECT_EQ(Key, F.Key);
    EXPECT_EQ(R.Id, F.Result.Id);
    EXPECT_EQ(R.Ok, F.Result.Ok);
    EXPECT_EQ(R.ProofBlob, F.Result.ProofBlob);
  }
}

TEST(StoreGolden, FixtureStoreLoadsAndServes) {
  // A store directory assembled from the committed fixtures must load
  // with nothing quarantined and serve both entries.
  const std::string Dir = QCC_STORE_CORPUS_DIR;
  if (std::getenv("QCC_REGEN_STORE_CORPUS"))
    GTEST_SKIP() << "regenerating";
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("fixture-store");
  fs::create_directories(SO.Dir);
  // Entries live under their content-addressed names (the open scan
  // quarantines a mismatched name as damage, by design).
  const std::pair<const char *, JobKey> Entries[] = {
      {"failed-entry.qcs", goldenFailedKey()},
      {"ok-entry.qcs", goldenOkKey()},
  };
  for (const auto &[Name, Key] : Entries) {
    std::string Bytes = slurp((fs::path(Dir) / Name).string());
    ASSERT_FALSE(Bytes.empty());
    spill((fs::path(SO.Dir) / VerificationStore::entryName(Key)).string(),
          Bytes);
  }
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  EXPECT_EQ(Store->stats().Quarantined, 0u);
  EXPECT_EQ(Store->entryCount(), 2u);
  auto Hit = Store->fetch(goldenOkKey(), smallJob(), nullptr);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Id, "golden/ok.c");
  auto Failed = Store->fetch(goldenFailedKey(), smallJob(), nullptr);
  ASSERT_NE(Failed, nullptr);
  EXPECT_FALSE(Failed->Ok);
}

//===----------------------------------------------------------------------===//
// The on-disk store: basic service
//===----------------------------------------------------------------------===//

TEST(StoreDisk, PutThenFetchAcrossFreshHandles) {
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  JobKey Key = smallKey();
  {
    auto Store = VerificationStore::open(SO);
    ASSERT_NE(Store, nullptr);
    EXPECT_EQ(Store->fetch(Key, smallJob(), nullptr), nullptr); // cold
    Store->put(Key, verifiedSmall(), nullptr);
    EXPECT_EQ(Store->entryCount(), 1u);
  }
  // A fresh handle (a fresh process, as far as the format is concerned)
  // must serve the same verdict bit-identically.
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  auto Hit = Store->fetch(Key, smallJob(), nullptr);
  ASSERT_NE(Hit, nullptr);
  const ProgramResult &R = verifiedSmall();
  EXPECT_EQ(Hit->Id, R.Id);
  EXPECT_EQ(Hit->Ok, R.Ok);
  EXPECT_EQ(Hit->ProofBlob, R.ProofBlob);
  EXPECT_EQ(Hit->Metrics.ProofNodes, R.Metrics.ProofNodes);
  EXPECT_EQ(Store->stats().Hits, 1u);
}

TEST(StoreDisk, PrimaryHashCollisionIsAPlainMiss) {
  // Two keys sharing the primary hash name different files (both digests
  // are in the name), so a single-hash collision cannot serve the wrong
  // verdict — it is not even a decode question.
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  JobKey A{42, 1001}, B{42, 2002};
  Store->put(A, verifiedSmall(), nullptr);
  EXPECT_EQ(Store->fetch(B, smallJob(), nullptr), nullptr);
  EXPECT_NE(Store->fetch(A, smallJob(), nullptr), nullptr);
  EXPECT_EQ(Store->stats().Quarantined, 0u);
}

TEST(StoreDisk, BudgetStoppedFetchDegradesToMissWithoutQuarantine) {
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  JobKey Key = smallKey();
  Store->put(Key, verifiedSmall(), nullptr);
  Supervisor Sup;
  Sup.setMemoryBudget(8); // the entry read alone trips it
  EXPECT_EQ(Store->fetch(Key, smallJob(), &Sup), nullptr);
  EXPECT_EQ(Sup.cause(), StopCause::MemoryBudget);
  EXPECT_EQ(Store->entryCount(), 1u); // not quarantined, not evicted
  EXPECT_NE(Store->fetch(Key, smallJob(), nullptr), nullptr);
}

TEST(StoreDisk, PutFlushesEvenAfterInterruptFired) {
  // The SIGINT drain contract: a put racing a ^C still lands — the batch
  // engine relies on it to not lose completed verdicts on interrupt.
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  Supervisor Interrupt;
  Interrupt.cancel(StopCause::Cancelled);
  ASSERT_TRUE(Interrupt.stopRequested());
  Store->put(smallKey(), verifiedSmall(), &Interrupt);
  EXPECT_EQ(Store->stats().Writes, 1u);
  EXPECT_NE(Store->fetch(smallKey(), smallJob(), nullptr), nullptr);
}

TEST(StoreDisk, NonDefinitiveResultsAreNeverPersisted) {
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  ProgramResult R = fullResult();
  R.Status = JobStatus::Quarantined;
  R.Stop = StopCause::FuelExhausted;
  Store->put(smallKey(), R, nullptr);
  EXPECT_EQ(Store->entryCount(), 0u);
  EXPECT_EQ(Store->stats().Writes, 0u);
}

TEST(StoreDisk, InMemoryCacheKeepsVerdictsWithoutProofBlobs) {
  // The proof blob is store freight: the in-memory cache (qccd's, for the
  // process lifetime) keeps the verdict and bounds but not the blob, on
  // both the fresh path and the store-hit path.
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  BatchOptions Opts;
  Opts.CheckTheorem1 = false;
  Opts.Store = Store.get();
  const ProgramResult &Ref = verifiedSmall();
  auto ExpectSameVerdict = [&Ref](const ProgramResult &R) {
    EXPECT_EQ(R.Ok, Ref.Ok);
    EXPECT_EQ(R.Status, Ref.Status);
    EXPECT_EQ(R.Diagnostics, Ref.Diagnostics);
    ASSERT_EQ(R.Bounds.size(), Ref.Bounds.size());
    for (size_t I = 0; I != R.Bounds.size(); ++I) {
      EXPECT_EQ(R.Bounds[I].Function, Ref.Bounds[I].Function);
      EXPECT_EQ(R.Bounds[I].SymbolicBound, Ref.Bounds[I].SymbolicBound);
      EXPECT_EQ(R.Bounds[I].ConcreteBytes, Ref.Bounds[I].ConcreteBytes);
    }
  };

  for (bool FromStore : {false, true}) {
    SCOPED_TRACE(FromStore ? "store-hit path" : "fresh path");
    ResultCache Cache;
    Opts.Cache = &Cache;
    ProgramResult First = runSupervisedJob(smallJob(), Opts, nullptr);
    EXPECT_EQ(First.StoreHit, FromStore);
    EXPECT_FALSE(First.CacheHit);
    EXPECT_EQ(First.ProofBlob, Ref.ProofBlob); // What the store got.
    ExpectSameVerdict(First);

    ProgramResult Second = runSupervisedJob(smallJob(), Opts, nullptr);
    EXPECT_TRUE(Second.CacheHit);
    EXPECT_TRUE(Second.ProofBlob.empty());
    ExpectSameVerdict(Second);
  }
  EXPECT_EQ(Store->stats().Writes, 1u);
}

//===----------------------------------------------------------------------===//
// Corruption injection: quarantine, never crash, never mis-verify
//===----------------------------------------------------------------------===//

struct CorruptionCase {
  const char *Name;
  std::string (*Mutate)(const std::string &);
};

std::string entryOnDisk(const std::string &StoreDir, const JobKey &Key) {
  return (fs::path(StoreDir) / VerificationStore::entryName(Key)).string();
}

TEST(StoreCorruption, EveryInjectedFaultQuarantinesInsteadOfServing) {
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  JobKey Key = smallKey();
  Store->put(Key, verifiedSmall(), nullptr);
  std::string Path = entryOnDisk(SO.Dir, Key);
  std::string Pristine = slurp(Path);
  ASSERT_FALSE(Pristine.empty());

  const CorruptionCase Cases[] = {
      {"zero-length", [](const std::string &) { return std::string(); }},
      {"truncated-header",
       [](const std::string &B) { return B.substr(0, 20); }},
      {"truncated-payload",
       [](const std::string &B) { return B.substr(0, B.size() / 2); }},
      {"one-byte-short",
       [](const std::string &B) { return B.substr(0, B.size() - 1); }},
      {"wrong-version",
       [](const std::string &B) {
         std::string V = B;
         V[8] = 9;
         return V;
       }},
      {"bad-magic",
       [](const std::string &B) {
         std::string V = B;
         V[0] = 'X';
         return V;
       }},
      {"checksum-flip",
       [](const std::string &B) {
         std::string V = B;
         V[17] = static_cast<char>(V[17] ^ 0xff);
         return V;
       }},
      {"garbage",
       [](const std::string &B) {
         return std::string(B.size(), '\x5a');
       }},
      {"appended-trailer",
       [](const std::string &B) { return B + "extra"; }},
  };
  uint64_t Quarantined = 0;
  for (const CorruptionCase &C : Cases) {
    spill(Path, C.Mutate(Pristine));
    EXPECT_EQ(Store->fetch(Key, smallJob(), nullptr), nullptr) << C.Name;
    EXPECT_FALSE(fs::exists(Path)) << C.Name << ": not quarantined";
    ++Quarantined;
    EXPECT_EQ(Store->stats().Quarantined, Quarantined) << C.Name;
    // The store stays serviceable: re-put and hit again.
    Store->put(Key, verifiedSmall(), nullptr);
    ASSERT_NE(Store->fetch(Key, smallJob(), nullptr), nullptr) << C.Name;
  }
}

TEST(StoreCorruption, BitFlipSweepNeverServesACorruptEntry) {
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  JobKey Key = smallKey();
  Store->put(Key, verifiedSmall(), nullptr);
  std::string Path = entryOnDisk(SO.Dir, Key);
  std::string Pristine = slurp(Path);
  ASSERT_GE(Pristine.size(), VerificationStore::HeaderSize);
  // Every header byte plus a stride over the payload: each flip must be
  // a quarantining miss — the checksum (or a header check) catches it.
  std::vector<size_t> Positions;
  for (size_t I = 0; I != VerificationStore::HeaderSize; ++I)
    Positions.push_back(I);
  for (size_t I = VerificationStore::HeaderSize; I < Pristine.size();
       I += 17)
    Positions.push_back(I);
  for (size_t Pos : Positions) {
    std::string Flipped = Pristine;
    Flipped[Pos] = static_cast<char>(Flipped[Pos] ^ (1u << (Pos % 8)));
    spill(Path, Flipped);
    EXPECT_EQ(Store->fetch(Key, smallJob(), nullptr), nullptr)
        << "flip at byte " << Pos << " was served";
    EXPECT_FALSE(fs::exists(Path)) << "flip at byte " << Pos;
  }
  spill(Path, Pristine); // restore: the pristine entry still serves
  EXPECT_NE(Store->fetch(Key, smallJob(), nullptr), nullptr);
}

TEST(StoreCorruption, OpenScanQuarantinesResidentDamage) {
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  JobKey Key = smallKey();
  {
    auto Store = VerificationStore::open(SO);
    ASSERT_NE(Store, nullptr);
    Store->put(Key, verifiedSmall(), nullptr);
  }
  // Damage the entry, drop a stray temp file, add a garbage entry and an
  // intact entry under the wrong name; then reopen as a fresh process.
  std::string Path = entryOnDisk(SO.Dir, Key);
  std::string Pristine = slurp(Path);
  spill(Path, Pristine.substr(0, Pristine.size() / 3));
  spill((fs::path(SO.Dir) / ".tmp-999-0").string(), "half-written");
  spill((fs::path(SO.Dir) / "0000000000000000-0000000000000000.qcs").string(),
        "not an entry at all");
  spill(entryOnDisk(SO.Dir, JobKey{7, 7}), Pristine); // wrong name
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  EXPECT_EQ(Store->stats().Quarantined, 3u);
  EXPECT_EQ(Store->entryCount(), 0u);
  EXPECT_FALSE(fs::exists((fs::path(SO.Dir) / ".tmp-999-0").string()));
  EXPECT_EQ(Store->fetch(Key, smallJob(), nullptr), nullptr);
  EXPECT_EQ(Store->fetch(JobKey{7, 7}, smallJob(), nullptr), nullptr);
  // Recovery: the store keeps working after the purge.
  Store->put(Key, verifiedSmall(), nullptr);
  EXPECT_NE(Store->fetch(Key, smallJob(), nullptr), nullptr);
}

TEST(StoreCorruption, IsTruncatedEntryClassifiesDamageShapes) {
  const std::string Full =
      VerificationStore::encodeEntry(smallKey(), verifiedSmall());
  const size_t H = VerificationStore::HeaderSize;
  ASSERT_GT(Full.size(), H);
  // Truncation shapes: what a crash between open and write, or a torn
  // copy, leaves behind.
  EXPECT_TRUE(VerificationStore::isTruncatedEntry(std::string()));
  EXPECT_TRUE(VerificationStore::isTruncatedEntry(Full.substr(0, 7)));
  EXPECT_TRUE(VerificationStore::isTruncatedEntry(Full.substr(0, H - 1)));
  EXPECT_TRUE(VerificationStore::isTruncatedEntry(Full.substr(0, H)));
  EXPECT_TRUE(VerificationStore::isTruncatedEntry(
      Full.substr(0, H + (Full.size() - H) / 2)));
  EXPECT_TRUE(
      VerificationStore::isTruncatedEntry(Full.substr(0, Full.size() - 1)));
  // Full-length or over-length images are not truncation.
  EXPECT_FALSE(VerificationStore::isTruncatedEntry(Full));
  EXPECT_FALSE(VerificationStore::isTruncatedEntry(Full + "extra"));
  // Bad magic or wrong version is corruption even when the file is also
  // short: the header can't be trusted to declare a payload size.
  std::string BadMagic = Full;
  BadMagic[0] = 'X';
  EXPECT_FALSE(VerificationStore::isTruncatedEntry(BadMagic));
  EXPECT_FALSE(VerificationStore::isTruncatedEntry(BadMagic.substr(0, H)));
  std::string WrongVersion = Full;
  WrongVersion[8] = 9;
  EXPECT_FALSE(VerificationStore::isTruncatedEntry(WrongVersion.substr(0, H)));
}

TEST(StoreCorruption, TruncationShapesBumpTheTruncatedCounter) {
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  JobKey Key = smallKey();
  Store->put(Key, verifiedSmall(), nullptr);
  std::string Path = entryOnDisk(SO.Dir, Key);
  std::string Pristine = slurp(Path);
  ASSERT_GT(Pristine.size(), VerificationStore::HeaderSize);

  const CorruptionCase TruncationShapes[] = {
      {"zero-length", [](const std::string &) { return std::string(); }},
      {"sub-header", [](const std::string &B) { return B.substr(0, 7); }},
      {"header-minus-one",
       [](const std::string &B) {
         return B.substr(0, VerificationStore::HeaderSize - 1);
       }},
      {"header-only",
       [](const std::string &B) {
         return B.substr(0, VerificationStore::HeaderSize);
       }},
      {"half-payload",
       [](const std::string &B) {
         size_t H = VerificationStore::HeaderSize;
         return B.substr(0, H + (B.size() - H) / 2);
       }},
  };
  uint64_t Seen = 0;
  for (const CorruptionCase &C : TruncationShapes) {
    spill(Path, C.Mutate(Pristine));
    EXPECT_EQ(Store->fetch(Key, smallJob(), nullptr), nullptr) << C.Name;
    EXPECT_FALSE(fs::exists(Path)) << C.Name << ": not quarantined";
    ++Seen;
    EXPECT_EQ(Store->stats().Quarantined, Seen) << C.Name;
    EXPECT_EQ(Store->stats().Truncated, Seen) << C.Name;
    Store->put(Key, verifiedSmall(), nullptr);
    ASSERT_NE(Store->fetch(Key, smallJob(), nullptr), nullptr) << C.Name;
  }
  // Non-truncation corruption quarantines without touching the
  // truncation counter: the two failure shapes stay distinguishable.
  const CorruptionCase OtherShapes[] = {
      {"bad-magic",
       [](const std::string &B) {
         std::string V = B;
         V[0] = 'X';
         return V;
       }},
      {"checksum-flip",
       [](const std::string &B) {
         std::string V = B;
         V[17] = static_cast<char>(V[17] ^ 0xff);
         return V;
       }},
  };
  uint64_t Truncated = Store->stats().Truncated;
  for (const CorruptionCase &C : OtherShapes) {
    spill(Path, C.Mutate(Pristine));
    EXPECT_EQ(Store->fetch(Key, smallJob(), nullptr), nullptr) << C.Name;
    ++Seen;
    EXPECT_EQ(Store->stats().Quarantined, Seen) << C.Name;
    EXPECT_EQ(Store->stats().Truncated, Truncated) << C.Name;
    Store->put(Key, verifiedSmall(), nullptr);
  }
}

TEST(StoreCorruption, TruncationSweepQuarantinesEveryPrefix) {
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  JobKey Key = smallKey();
  Store->put(Key, verifiedSmall(), nullptr);
  std::string Path = entryOnDisk(SO.Dir, Key);
  std::string Pristine = slurp(Path);
  ASSERT_GT(Pristine.size(), VerificationStore::HeaderSize);
  // The bit-flip sweep's companion: every prefix length across the
  // header plus a stride over the payload must be a quarantining miss,
  // never a crash or a served entry.
  std::vector<size_t> Lengths;
  for (size_t L = 0; L <= VerificationStore::HeaderSize; ++L)
    Lengths.push_back(L);
  for (size_t L = VerificationStore::HeaderSize + 17; L < Pristine.size();
       L += 17)
    Lengths.push_back(L);
  uint64_t Seen = 0;
  for (size_t L : Lengths) {
    spill(Path, Pristine.substr(0, L));
    EXPECT_EQ(Store->fetch(Key, smallJob(), nullptr), nullptr)
        << "prefix of " << L << " bytes was served";
    EXPECT_FALSE(fs::exists(Path)) << "prefix of " << L << " bytes";
    ++Seen;
    EXPECT_EQ(Store->stats().Truncated, Seen)
        << "prefix of " << L << " bytes not counted as truncation";
    Store->put(Key, verifiedSmall(), nullptr);
  }
  ASSERT_NE(Store->fetch(Key, smallJob(), nullptr), nullptr);
}

TEST(StoreCorruption, OpenScanCountsTruncationShapesSeparately) {
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  ProgramResult R = fullResult();
  JobKey K1{1, 10}, K2{2, 20}, K3{3, 30};
  {
    auto Store = VerificationStore::open(SO);
    ASSERT_NE(Store, nullptr);
    Store->put(K1, R, nullptr);
    Store->put(K2, R, nullptr);
    Store->put(K3, R, nullptr);
  }
  // Two truncation shapes and one non-truncation corruption, then
  // reopen as a fresh process: the scan quarantines all three but
  // attributes only the truncations to the truncation counter.
  std::string P1 = entryOnDisk(SO.Dir, K1);
  std::string P2 = entryOnDisk(SO.Dir, K2);
  std::string P3 = entryOnDisk(SO.Dir, K3);
  std::string Bytes = slurp(P1);
  spill(P1, std::string());                                   // zero-length
  spill(P2, slurp(P2).substr(0, Bytes.size() / 2));           // torn payload
  std::string BadMagic = slurp(P3);
  BadMagic[0] = 'X';
  spill(P3, BadMagic);
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  EXPECT_EQ(Store->stats().Quarantined, 3u);
  EXPECT_EQ(Store->stats().Truncated, 2u);
  EXPECT_EQ(Store->entryCount(), 0u);
  // The store keeps working after the purge.
  Store->put(K1, R, nullptr);
  EXPECT_NE(Store->fetch(K1, smallJob(), nullptr), nullptr);
}

//===----------------------------------------------------------------------===//
// Failpoints on the commit path: failures counted, store never dirtied
//===----------------------------------------------------------------------===//

TEST(StoreFailpoints, CommitBoundaryFaultsCountWriteFailures) {
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  JobKey Key = smallKey();
  // One fault per commit boundary: the put must fail closed — counted,
  // no committed entry, no temp-file litter — and the store must serve
  // again the moment the fault clears.
  const char *Specs[] = {
      "store.write=err:enospc@1",
      "store.write=short@1",
      "store.fsync=err@1",
      "store.rename=err@1",
  };
  uint64_t Failures = 0;
  for (const char *Spec : Specs) {
    failpoint::ScopedSpec FP(Spec);
    ASSERT_TRUE(FP.Ok) << Spec << ": " << FP.Error;
    Store->put(Key, verifiedSmall(), nullptr);
    EXPECT_EQ(Store->stats().WriteFailures, ++Failures) << Spec;
    EXPECT_EQ(Store->fetch(Key, smallJob(), nullptr), nullptr) << Spec;
    for (const auto &E : fs::directory_iterator(SO.Dir))
      EXPECT_NE(E.path().filename().string().substr(0, 5), ".tmp-")
          << Spec << " left " << E.path();
  }
  EXPECT_EQ(Store->stats().Writes, 0u);
  Store->put(Key, verifiedSmall(), nullptr);
  EXPECT_EQ(Store->stats().Writes, 1u);
  EXPECT_NE(Store->fetch(Key, smallJob(), nullptr), nullptr);
}

//===----------------------------------------------------------------------===//
// LRU eviction under a byte budget
//===----------------------------------------------------------------------===//

TEST(StoreEviction, OldestEntriesGoFirstAndAHitRefreshes) {
  TempDir Tmp;
  ProgramResult R = fullResult(); // constant size for every key
  JobKey K1{1, 10}, K2{2, 20}, K3{3, 30}, K4{4, 40};
  uint64_t EntrySize = VerificationStore::encodeEntry(K1, R).size();
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  SO.BudgetBytes = 3 * EntrySize;
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  Store->put(K1, R, nullptr);
  Store->put(K2, R, nullptr);
  Store->put(K3, R, nullptr);
  // Make the relative ages unambiguous regardless of mtime granularity.
  auto Now = fs::file_time_type::clock::now();
  fs::last_write_time(entryOnDisk(SO.Dir, K1), Now - std::chrono::hours(3));
  fs::last_write_time(entryOnDisk(SO.Dir, K2), Now - std::chrono::hours(2));
  fs::last_write_time(entryOnDisk(SO.Dir, K3), Now - std::chrono::hours(1));
  // A hit on the oldest entry refreshes it...
  ASSERT_NE(Store->fetch(K1, smallJob(), nullptr), nullptr);
  // ...so the fourth put evicts K2, now the least recently used.
  Store->put(K4, R, nullptr);
  EXPECT_TRUE(fs::exists(entryOnDisk(SO.Dir, K1)));
  EXPECT_FALSE(fs::exists(entryOnDisk(SO.Dir, K2)));
  EXPECT_TRUE(fs::exists(entryOnDisk(SO.Dir, K3)));
  EXPECT_TRUE(fs::exists(entryOnDisk(SO.Dir, K4)));
  EXPECT_EQ(Store->stats().EvictedEntries, 1u);
  EXPECT_EQ(Store->stats().EvictedBytes, EntrySize);
  EXPECT_LE(Store->residentBytes(), SO.BudgetBytes);
}

TEST(StoreEviction, UnboundedStoreNeverEvicts) {
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  ProgramResult R = fullResult();
  for (uint64_t I = 1; I <= 8; ++I)
    Store->put(JobKey{I, I * 100}, R, nullptr);
  EXPECT_EQ(Store->entryCount(), 8u);
  EXPECT_EQ(Store->stats().EvictedEntries, 0u);
}

//===----------------------------------------------------------------------===//
// --store-verify: proofs re-checked before an entry is trusted
//===----------------------------------------------------------------------===//

TEST(StoreVerify, GenuineEntryPassesRecheck) {
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  {
    auto Store = VerificationStore::open(SO);
    ASSERT_NE(Store, nullptr);
    Store->put(smallKey(), verifiedSmall(), nullptr);
  }
  StoreOptions Verify = SO;
  Verify.VerifyProofsOnLoad = true;
  auto Store = VerificationStore::open(Verify);
  ASSERT_NE(Store, nullptr);
  auto Hit = Store->fetch(smallKey(), smallJob(), nullptr);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Store->stats().VerifiedProofs, 1u);
  EXPECT_EQ(Store->stats().VerifyFailures, 0u);
}

TEST(StoreVerify, ValidFormatButUncoveredClaimsAreRejected) {
  // The dangerous tamper is not random damage (the checksum catches
  // that) but a well-formed entry whose proof section no longer covers
  // its claims. Strip the proofs to an empty-but-valid section: the
  // verdict still says Ok with bounds, so --store-verify must reject.
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  SO.VerifyProofsOnLoad = true;
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  ProgramResult Tampered = verifiedSmall();
  ByteWriter W;
  writeContext(W, logic::FunctionContext{}); // empty Gamma
  W.u64(0);                                  // no bounds
  Tampered.ProofBlob = W.take();
  // Forge the entry directly (an honest put would store honest bytes,
  // but the attacker writes the file; the checksum is over the forged
  // payload, so only the proof re-check can catch it).
  spill(entryOnDisk(SO.Dir, smallKey()),
        VerificationStore::encodeEntry(smallKey(), Tampered));
  EXPECT_EQ(Store->fetch(smallKey(), smallJob(), nullptr), nullptr);
  EXPECT_EQ(Store->stats().VerifyFailures, 1u);
  EXPECT_FALSE(fs::exists(entryOnDisk(SO.Dir, smallKey())));
}

TEST(StoreVerify, OkVerdictWithoutProofsIsRejected) {
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  SO.VerifyProofsOnLoad = true;
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  ProgramResult Stripped = verifiedSmall();
  Stripped.ProofBlob.clear();
  spill(entryOnDisk(SO.Dir, smallKey()),
        VerificationStore::encodeEntry(smallKey(), Stripped));
  EXPECT_EQ(Store->fetch(smallKey(), smallJob(), nullptr), nullptr);
  EXPECT_EQ(Store->stats().VerifyFailures, 1u);
}

TEST(StoreVerify, FailedVerdictNeedsNoProofs) {
  TempDir Tmp;
  StoreOptions SO;
  SO.Dir = Tmp.sub("store");
  SO.VerifyProofsOnLoad = true;
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  ProgramResult Failed;
  Failed.Id = "bad.c";
  Failed.Ok = false;
  Failed.Status = JobStatus::Failed;
  Failed.Diagnostics = "error: nope\n";
  Store->put(smallKey(), Failed, nullptr);
  auto Hit = Store->fetch(smallKey(), smallJob(), nullptr);
  ASSERT_NE(Hit, nullptr);
  EXPECT_FALSE(Hit->Ok);
}

//===----------------------------------------------------------------------===//
// Concurrency: many processes, one store
//===----------------------------------------------------------------------===//

TEST(StoreConcurrency, ManyProcessesShareOneStoreSafely) {
  TempDir Tmp;
  std::string Dir = Tmp.sub("store");
  const ProgramResult &R = verifiedSmall(); // verify once, before forking
  constexpr int Kids = 4, Rounds = 24;
  std::vector<pid_t> Pids;
  for (int Kid = 0; Kid != Kids; ++Kid) {
    pid_t Pid = fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: its own handle, its own flock holder. gtest macros are
      // unusable here; communicate through the exit code.
      StoreOptions SO;
      SO.Dir = Dir;
      auto Store = VerificationStore::open(SO);
      if (!Store)
        _exit(10);
      for (int Round = 0; Round != Rounds; ++Round) {
        JobKey Key{static_cast<uint64_t>(Round % 6 + 1),
                   static_cast<uint64_t>(1000 + Round % 6)};
        Store->put(Key, R, nullptr);
        auto Hit = Store->fetch(Key, smallJob(), nullptr);
        if (!Hit)
          _exit(11); // nothing evicts; a miss means a torn read
        if (Hit->Id != R.Id || Hit->ProofBlob != R.ProofBlob)
          _exit(12); // served bytes from a different (torn) entry
        if (Store->fetch(JobKey{999, 999}, smallJob(), nullptr))
          _exit(13);
      }
      _exit(0);
    }
    Pids.push_back(Pid);
  }
  for (pid_t Pid : Pids) {
    int WStatus = 0;
    ASSERT_EQ(waitpid(Pid, &WStatus, 0), Pid);
    ASSERT_TRUE(WIFEXITED(WStatus));
    EXPECT_EQ(WEXITSTATUS(WStatus), 0);
  }
  // Afterwards every resident entry must validate: a fresh open scan
  // quarantines nothing.
  StoreOptions SO;
  SO.Dir = Dir;
  auto Store = VerificationStore::open(SO);
  ASSERT_NE(Store, nullptr);
  EXPECT_EQ(Store->stats().Quarantined, 0u);
  EXPECT_EQ(Store->entryCount(), 6u);
}

//===----------------------------------------------------------------------===//
// Acceptance: warm rerun in a separate process
//===----------------------------------------------------------------------===//

TEST(StoreAcceptance, WarmCorpusRerunInAFreshProcessServesEverything) {
  TempDir Tmp;
  std::string StoreDir = Tmp.sub("store");
  auto RunOnce = [&](const std::string &JsonPath,
                     const std::string &MetaPath) {
    pid_t Pid = fork();
    if (Pid == 0) {
      StoreOptions SO;
      SO.Dir = StoreDir;
      auto Store = VerificationStore::open(SO);
      if (!Store)
        _exit(10);
      std::vector<BatchJob> Jobs = corpusJobs(/*ValidateTranslation=*/true);
      BatchOptions BO;
      BO.Jobs = 4;
      BO.Store = Store.get();
      BatchResult R = runBatch(Jobs, BO);
      {
        std::ofstream Out(JsonPath, std::ios::binary);
        Out << metricsJson(R, JsonDetail::Deterministic);
      }
      {
        std::ofstream Out(MetaPath);
        Out << R.FreshProofNodes << ' ' << R.storeHits() << ' '
            << R.Programs.size() << ' ' << (R.allOk() ? 1 : 0);
      }
      _exit(0);
    }
    int WStatus = 0;
    EXPECT_EQ(waitpid(Pid, &WStatus, 0), Pid);
    return WIFEXITED(WStatus) ? WEXITSTATUS(WStatus) : -1;
  };

  std::string ColdJson = Tmp.sub("cold.json"), ColdMeta = Tmp.sub("cold.meta");
  std::string WarmJson = Tmp.sub("warm.json"), WarmMeta = Tmp.sub("warm.meta");
  ASSERT_EQ(RunOnce(ColdJson, ColdMeta), 0);
  ASSERT_EQ(RunOnce(WarmJson, WarmMeta), 0);

  uint64_t ColdFresh = 0, WarmFresh = 0;
  unsigned ColdHits = 0, WarmHits = 0, ColdJobs = 0, WarmJobs = 0;
  int ColdOk = 0, WarmOk = 0;
  {
    std::istringstream In(slurp(ColdMeta));
    In >> ColdFresh >> ColdHits >> ColdJobs >> ColdOk;
  }
  {
    std::istringstream In(slurp(WarmMeta));
    In >> WarmFresh >> WarmHits >> WarmJobs >> WarmOk;
  }
  ASSERT_GT(ColdJobs, 0u);
  EXPECT_EQ(ColdOk, 1);
  EXPECT_EQ(ColdHits, 0u);
  EXPECT_GT(ColdFresh, 0u) << "cold run did fresh proof checking";
  // The acceptance criterion: 100% store hits, verdicts and metrics
  // byte-identical modulo timings, and measurably less proof-checker
  // work — here, none at all.
  EXPECT_EQ(WarmOk, 1);
  EXPECT_EQ(WarmJobs, ColdJobs);
  EXPECT_EQ(WarmHits, WarmJobs) << "a warm job missed the store";
  EXPECT_EQ(WarmFresh, 0u) << "warm run re-checked proofs it should not";
  EXPECT_LT(WarmFresh, ColdFresh);
  std::string Cold = slurp(ColdJson), Warm = slurp(WarmJson);
  ASSERT_FALSE(Cold.empty());
  EXPECT_EQ(Cold, Warm) << "deterministic metrics drifted across the store";
}

} // namespace
