//===- tests/DaemonTest.cpp - qccd: protocol, concurrency, budgets --------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verification daemon's contract (ctest -L daemon; rides in the
/// TSan slice via the batch label):
///
///   * wire codec round trips and totality on hostile payloads,
///   * malformed-frame fuzzing against a live server — bad magic,
///     version skew, oversize declarations, truncated payloads, checksum
///     mismatches, type confusion, random garbage — every case draws an
///     Error reply or a clean disconnect, and the server keeps serving,
///   * the acceptance criterion: N concurrent clients verifying the warm
///     corpus get verdicts and per-pass metrics bit-identical to a local
///     `--batch` run of the same jobs,
///   * fair-share budgets: one deliberately over-budget client is
///     cancelled without affecting any other connection,
///   * the shared pool's submit() path (FIFO tasks interleaved with
///     parallelFor batches, shutdown draining).
///
//===----------------------------------------------------------------------===//

#include "daemon/Client.h"
#include "daemon/Daemon.h"
#include "daemon/Protocol.h"

#include "batch/ThreadPool.h"
#include "store/Store.h"
#include "support/FailPoint.h"
#include "support/Io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace qcc;
using namespace qcc::batch;
using namespace qcc::daemon;

namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Fixtures
//===----------------------------------------------------------------------===//

/// Scoped scratch directory (socket + store live here).
struct TempDir {
  std::string Path;
  TempDir() {
    std::string Template =
        (fs::temp_directory_path() / "qcc-daemon-XXXXXX").string();
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

/// A daemon running on its own serve() thread, torn down in order.
struct LiveDaemon {
  explicit LiveDaemon(const DaemonOptions &Opts) : D(Opts) {
    EXPECT_TRUE(D.valid()) << D.error();
    Server = std::thread([this] { D.serve(); });
  }
  ~LiveDaemon() {
    D.requestShutdown();
    Server.join();
  }
  Daemon D;
  std::thread Server;
};

const char *SmallA = R"(
typedef unsigned int u32;
u32 leaf(u32 x) { return x * 3 + 1; }
int main() { return (int)(leaf(5u) & 0xff); }
)";

const char *SmallB = R"(
typedef unsigned int u32;
u32 g[4];
u32 mid(u32 x) { return x + g[x & 3]; }
int main() {
  u32 i;
  for (i = 0; i < 4; i++) g[i] = mid(i);
  return (int)(g[2] & 0xff);
}
)";

std::vector<BatchJob> smallJobs() {
  std::vector<BatchJob> Jobs;
  BatchJob A{"a.c", SmallA, {}};
  A.Options.ValidateTranslation = false;
  BatchJob B{"b.c", SmallB, {}};
  B.Options.ValidateTranslation = false;
  Jobs.push_back(std::move(A));
  Jobs.push_back(std::move(B));
  return Jobs;
}

JobRequest requestFor(const BatchJob &J) {
  JobRequest Req;
  Req.Job = J;
  Req.CheckTheorem1 = true;
  return Req;
}

/// A raw client socket for hostile-bytes tests (DaemonClient would
/// refuse to send what these tests must send).
int rawConnect(const std::string &SocketPath) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(Fd, 0);
  EXPECT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0)
      << SocketPath;
  return Fd;
}

/// True when the daemon answers a fresh Ping — the "server survived"
/// probe after every hostile exchange.
bool serverAlive(const std::string &SocketPath) {
  DaemonClient C;
  return C.connect(SocketPath) && C.ping();
}

//===----------------------------------------------------------------------===//
// Wire codec round trips and totality
//===----------------------------------------------------------------------===//

TEST(Protocol, FrameRoundTripsThroughAPipe) {
  int Fds[2];
  ASSERT_EQ(pipe(Fds), 0);
  const std::string Payload = "quantitative";
  ASSERT_TRUE(io::writeFull(Fds[1],
                            encodeFrame(MsgType::Status, Payload).data(),
                            FrameHeaderSize + Payload.size()));
  Frame F;
  EXPECT_EQ(readFrame(Fds[0], F), FrameStatus::Ok);
  EXPECT_EQ(F.Type, MsgType::Status);
  EXPECT_EQ(F.Payload, Payload);
  close(Fds[0]);
  close(Fds[1]);
}

TEST(Protocol, JobRequestRoundTrips) {
  JobRequest Req;
  Req.Job.Id = "prog.c";
  Req.Job.Source = SmallA;
  Req.Job.Options.Defines["ALEN"] = 4096;
  Req.Job.Options.Optimize = false;
  Req.Job.Options.Inline = true;
  Req.Job.Options.TailCalls = true;
  Req.Job.Options.ValidateTranslation = false;
  Req.Job.Options.ValidationFuel = 12345;
  Req.Job.Options.AnalyzeBounds = false;
  Req.CheckTheorem1 = false;
  Req.DeadlineMillis = 777;
  Req.MemoryBudgetBytes = 1 << 20;

  JobRequest Out;
  ASSERT_TRUE(decodeJobRequest(encodeJobRequest(Req), Out));
  EXPECT_EQ(Out.Job.Id, Req.Job.Id);
  EXPECT_EQ(Out.Job.Source, Req.Job.Source);
  EXPECT_EQ(Out.Job.Options.Defines, Req.Job.Options.Defines);
  EXPECT_EQ(Out.Job.Options.Optimize, false);
  EXPECT_EQ(Out.Job.Options.Inline, true);
  EXPECT_EQ(Out.Job.Options.TailCalls, true);
  EXPECT_EQ(Out.Job.Options.ValidateTranslation, false);
  EXPECT_EQ(Out.Job.Options.ValidationFuel, 12345u);
  EXPECT_EQ(Out.Job.Options.AnalyzeBounds, false);
  EXPECT_EQ(Out.CheckTheorem1, false);
  EXPECT_EQ(Out.DeadlineMillis, 777u);
  EXPECT_EQ(Out.MemoryBudgetBytes, 1u << 20);
}

TEST(Protocol, DecodersAreTotalOnTruncationAndGarbage) {
  JobRequest Req;
  Req.Job.Id = "prog.c";
  Req.Job.Source = SmallA;
  Req.Job.Options.Defines["N"] = 7;
  const std::string Good = encodeJobRequest(Req);

  // Every prefix must decode to false, never crash or over-read.
  JobRequest Out;
  for (size_t Len = 0; Len != Good.size(); ++Len)
    EXPECT_FALSE(decodeJobRequest(Good.substr(0, Len), Out)) << Len;
  // Trailing junk is rejected too (R.done() discipline).
  EXPECT_FALSE(decodeJobRequest(Good + "x", Out));

  PassStatus PS;
  EXPECT_FALSE(decodePassStatus("", PS));
  EXPECT_FALSE(decodePassStatus("\xff\xff\xff", PS));
  ProgramResult PR;
  EXPECT_FALSE(decodeVerdict("not a verdict", PR));
}

TEST(Protocol, HostileDefineCountIsRejectedBeforeAllocation) {
  // A forged payload declaring 2^61 defines in a 50-byte buffer must be
  // rejected by the count sanity check, not attempted.
  store::ByteWriter W;
  W.str("id");
  W.str("src");
  W.u64(1ull << 61);
  JobRequest Out;
  EXPECT_FALSE(decodeJobRequest(W.take(), Out));
}

//===----------------------------------------------------------------------===//
// Malformed frames against a live server
//===----------------------------------------------------------------------===//

class DaemonFrameFuzz : public ::testing::Test {
protected:
  void SetUp() override {
    DaemonOptions Opts;
    Opts.SocketPath = Dir.sub("qccd.sock");
    Opts.Jobs = 2;
    Opts.MaxFrameBytes = 1 << 20;
    // A wedged hostile client may never send its declared payload; the
    // receive timeout unblocks the connection thread.
    Opts.RecvTimeoutMillis = 2000;
    Live = std::make_unique<LiveDaemon>(Opts);
    Socket = Opts.SocketPath;
  }

  /// Sends \p Bytes raw, expects an Error frame (or clean disconnect)
  /// and a still-serving daemon.
  void expectRejected(const std::string &Bytes, const char *Case) {
    int Fd = rawConnect(Socket);
    ASSERT_TRUE(io::writeFull(Fd, Bytes.data(), Bytes.size())) << Case;
    Frame F;
    FrameStatus S = readFrame(Fd, F);
    // Either a framed Error reply or EOF (the server hung up already);
    // anything else means the server misparsed hostile bytes as data.
    if (S == FrameStatus::Ok)
      EXPECT_EQ(F.Type, MsgType::Error) << Case;
    else
      EXPECT_EQ(S, FrameStatus::Eof) << Case;
    close(Fd);
    EXPECT_TRUE(serverAlive(Socket)) << Case;
  }

  TempDir Dir;
  std::string Socket;
  std::unique_ptr<LiveDaemon> Live;
};

TEST_F(DaemonFrameFuzz, BadMagic) {
  std::string Wire = encodeFrame(MsgType::Ping, "");
  Wire[0] = 'X';
  expectRejected(Wire, "bad-magic");
}

TEST_F(DaemonFrameFuzz, VersionSkew) {
  std::string Wire = encodeFrame(MsgType::Ping, "");
  Wire[8] = 2; // Version field: u32 LE at offset 8.
  expectRejected(Wire, "version-skew");
}

TEST_F(DaemonFrameFuzz, OversizeDeclaredLength) {
  // Header declaring a 1 GiB payload (far past MaxFrameBytes); the
  // server must reject on the declared size without allocating it.
  std::string Wire = encodeFrame(MsgType::Submit, "");
  uint64_t Huge = 1ull << 30;
  std::memcpy(&Wire[24], &Huge, sizeof(Huge)); // Size field at offset 24.
  expectRejected(Wire, "oversize");
}

TEST_F(DaemonFrameFuzz, ChecksumMismatch) {
  std::string Wire = encodeFrame(MsgType::Ping, "payload");
  Wire[16] ^= 0x5a; // Checksum field at offset 16.
  expectRejected(Wire, "bad-checksum");
}

TEST_F(DaemonFrameFuzz, TruncatedPayloadThenDisconnect) {
  // Declare 64 bytes, deliver 8, vanish. The server's read loop must
  // not wedge a worker: the disconnect (or receive timeout) unblocks
  // it, and the daemon keeps serving.
  std::string Wire = encodeFrame(MsgType::Submit, std::string(64, 'p'));
  Wire.resize(FrameHeaderSize + 8);
  int Fd = rawConnect(Socket);
  ASSERT_TRUE(io::writeFull(Fd, Wire.data(), Wire.size()));
  close(Fd);
  EXPECT_TRUE(serverAlive(Socket));
}

TEST_F(DaemonFrameFuzz, TruncatedHeaderThenDisconnect) {
  int Fd = rawConnect(Socket);
  ASSERT_TRUE(io::writeFull(Fd, "QCCDWI", 6)); // 6 of 32 header bytes.
  close(Fd);
  EXPECT_TRUE(serverAlive(Socket));
}

TEST_F(DaemonFrameFuzz, TypeConfusionIsAProtocolError) {
  // Well-formed frames of types only the server sends.
  expectRejected(encodeFrame(MsgType::Verdict, "x"), "verdict-to-server");
  expectRejected(encodeFrame(MsgType::Pong, ""), "pong-to-server");
  expectRejected(encodeFrame(static_cast<MsgType>(999), ""), "unknown-type");
}

TEST_F(DaemonFrameFuzz, MalformedSubmitPayload) {
  // A perfectly framed Submit whose payload is not a JobRequest.
  expectRejected(encodeFrame(MsgType::Submit, "garbage job"), "bad-submit");
}

TEST_F(DaemonFrameFuzz, RandomGarbageNeverKillsTheServer) {
  uint64_t State = 0x9e3779b97f4a7c15ull;
  auto Next = [&State] {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  };
  for (int Round = 0; Round != 16; ++Round) {
    std::string Junk(1 + (Next() % 200), '\0');
    for (char &C : Junk)
      C = static_cast<char>(Next());
    int Fd = rawConnect(Socket);
    ASSERT_TRUE(io::writeFull(Fd, Junk.data(), Junk.size()));
    close(Fd);
  }
  EXPECT_TRUE(serverAlive(Socket));
  // Connection threads process the junk asynchronously; give the
  // counters a bounded moment to land.
  for (int Spin = 0; Spin != 200 && Live->D.stats().ProtocolErrors == 0;
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GT(Live->D.stats().ProtocolErrors, 0u);
}

//===----------------------------------------------------------------------===//
// Serving verdicts
//===----------------------------------------------------------------------===//

TEST(Daemon, PingPongAndShutdownFrame) {
  TempDir Dir;
  DaemonOptions Opts;
  Opts.SocketPath = Dir.sub("qccd.sock");
  Opts.Jobs = 1;
  LiveDaemon Live(Opts);

  DaemonClient C;
  ASSERT_TRUE(C.connect(Opts.SocketPath)) << C.error();
  EXPECT_TRUE(C.ping());
  EXPECT_TRUE(C.ping()); // The connection stays up across frames.
  EXPECT_TRUE(C.shutdownServer());
  Live.Server.join();
  Live.Server = std::thread([] {}); // Destructor joins something valid.
}

TEST(Daemon, ServesVerdictsMatchingLocalRuns) {
  TempDir Dir;
  DaemonOptions Opts;
  Opts.SocketPath = Dir.sub("qccd.sock");
  Opts.Jobs = 2;
  LiveDaemon Live(Opts);

  std::vector<BatchJob> Jobs = smallJobs();
  BatchResult Local = runBatch(Jobs, BatchOptions{});
  ASSERT_TRUE(Local.allOk());

  DaemonClient C;
  ASSERT_TRUE(C.connect(Opts.SocketPath)) << C.error();
  BatchResult Remote;
  Remote.Jobs = Local.Jobs;
  for (const BatchJob &J : Jobs) {
    ClientOutcome Out = C.verify(requestFor(J));
    ASSERT_TRUE(Out.HaveVerdict) << Out.Error;
    EXPECT_FALSE(Out.Passes.empty()); // Per-pass status frames arrived.
    EXPECT_TRUE(Out.Result.ProofBlob.empty()); // Stripped on the wire.
    Remote.Programs.push_back(std::move(Out.Result));
  }
  EXPECT_EQ(metricsJson(Remote, JsonDetail::Deterministic),
            metricsJson(Local, JsonDetail::Deterministic));
  EXPECT_EQ(Live.D.stats().JobsServed, Jobs.size());
}

TEST(Daemon, AcceptanceWarmStoreFourConcurrentClientsBitIdentical) {
  TempDir Dir;

  // Local reference run, warming the on-disk store the daemon will use.
  std::vector<BatchJob> Jobs = smallJobs();
  BatchResult Local;
  {
    // Scoped: the store handle (and its flock) must be released before
    // the daemon opens the same directory.
    batch::ResultCache Cache;
    store::StoreOptions SO;
    SO.Dir = Dir.sub("store");
    auto Store = store::VerificationStore::open(SO);
    ASSERT_TRUE(Store);
    BatchOptions BO;
    BO.Cache = &Cache;
    BO.Store = Store.get();
    Local = runBatch(Jobs, BO);
    ASSERT_TRUE(Local.allOk());
  }

  DaemonOptions Opts;
  Opts.SocketPath = Dir.sub("qccd.sock");
  Opts.Jobs = 2;
  Opts.StoreDir = Dir.sub("store");
  LiveDaemon Live(Opts);

  // Four clients, each verifying the whole job list concurrently.
  constexpr int NumClients = 4;
  std::vector<BatchResult> Remote(NumClients);
  std::vector<std::string> Failures(NumClients);
  std::vector<std::thread> Clients;
  for (int I = 0; I != NumClients; ++I)
    Clients.emplace_back([&, I] {
      DaemonClient C;
      if (!C.connect(Opts.SocketPath)) {
        Failures[I] = C.error();
        return;
      }
      Remote[I].Jobs = Local.Jobs;
      for (const BatchJob &J : smallJobs()) {
        ClientOutcome Out = C.verify(requestFor(J));
        if (!Out.HaveVerdict) {
          Failures[I] = Out.Error;
          return;
        }
        Remote[I].Programs.push_back(std::move(Out.Result));
      }
    });
  for (std::thread &T : Clients)
    T.join();

  const std::string Want = metricsJson(Local, JsonDetail::Deterministic);
  for (int I = 0; I != NumClients; ++I) {
    ASSERT_TRUE(Failures[I].empty()) << "client " << I << ": "
                                     << Failures[I];
    // The acceptance criterion: verdicts and per-pass metrics from the
    // daemon are bit-identical to the local batch run.
    EXPECT_EQ(metricsJson(Remote[I], JsonDetail::Deterministic), Want)
        << "client " << I;
    // Served warm: the first wave hits the store, later waves the
    // daemon's in-memory cache; nothing re-verifies.
    for (const ProgramResult &P : Remote[I].Programs)
      EXPECT_TRUE(P.StoreHit || P.CacheHit) << P.Id;
  }
  EXPECT_EQ(Live.D.stats().JobsServed,
            static_cast<uint64_t>(NumClients) * Jobs.size());
  EXPECT_EQ(Live.D.stats().ProtocolErrors, 0u);
}

//===----------------------------------------------------------------------===//
// Fair-share budgets and cancellation isolation
//===----------------------------------------------------------------------===//

TEST(Daemon, OverBudgetClientIsCancelledWithoutAffectingOthers) {
  TempDir Dir;
  DaemonOptions Opts;
  Opts.SocketPath = Dir.sub("qccd.sock");
  Opts.Jobs = 2;
  // Any verification charges tracked bytes (metered sinks, proof
  // checker); one byte of fair share means the first fresh job crosses
  // the budget.
  Opts.ClientBudgetBytes = 1;
  LiveDaemon Live(Opts);

  std::vector<BatchJob> Jobs = smallJobs();

  // The greedy client: first job verifies (the budget is checked after
  // the verdict — cancellation is verdict-withholding, never
  // retroactive), then the connection is cancelled.
  DaemonClient Greedy;
  ASSERT_TRUE(Greedy.connect(Opts.SocketPath)) << Greedy.error();
  ClientOutcome First = Greedy.verify(requestFor(Jobs[0]));
  ASSERT_TRUE(First.HaveVerdict) << First.Error;
  EXPECT_TRUE(First.Result.Ok);

  ClientOutcome Second = Greedy.verify(requestFor(Jobs[1]));
  EXPECT_FALSE(Second.HaveVerdict);
  EXPECT_NE(Second.Error.find("cancelled"), std::string::npos)
      << Second.Error;
  EXPECT_EQ(Live.D.stats().BudgetCancels, 1u);

  // A well-behaved client on the same daemon is untouched: the cancel
  // hit the greedy connection's supervisor, not the root.
  DaemonClient Polite;
  ASSERT_TRUE(Polite.connect(Opts.SocketPath)) << Polite.error();
  ClientOutcome Ok = Polite.verify(requestFor(Jobs[1]));
  ASSERT_TRUE(Ok.HaveVerdict) << Ok.Error;
  EXPECT_TRUE(Ok.Result.Ok);
  EXPECT_FALSE(Live.D.rootSupervisor().stopRequested());
}

TEST(Daemon, ShutdownDrainsConnectedClients) {
  TempDir Dir;
  DaemonOptions Opts;
  Opts.SocketPath = Dir.sub("qccd.sock");
  Opts.Jobs = 2;
  LiveDaemon Live(Opts);

  DaemonClient C;
  ASSERT_TRUE(C.connect(Opts.SocketPath)) << C.error();
  ASSERT_TRUE(C.ping());
  Live.D.requestShutdown();
  Live.Server.join();
  Live.Server = std::thread([] {});
  // The connection was shut down server-side; the next exchange fails
  // cleanly instead of hanging.
  EXPECT_FALSE(C.ping());
}

//===----------------------------------------------------------------------===//
// Overload resilience: accept backoff, admission shedding, idle
// timeouts, graceful drain, client retry
//===----------------------------------------------------------------------===//

TEST(Resilience, AcceptLoopSurvivesEmfileWithBackoff) {
  TempDir Dir;
  DaemonOptions Opts;
  Opts.SocketPath = Dir.sub("qccd.sock");
  Opts.Jobs = 1;
  // The first five accept() calls fail with EMFILE (fd exhaustion); the
  // loop must back off and keep serving, not exit or spin.
  failpoint::ScopedSpec Spec("daemon.accept=err:emfile@1..5");
  ASSERT_TRUE(Spec.Ok) << Spec.Error;
  LiveDaemon Live(Opts);

  DaemonClient C;
  ASSERT_TRUE(C.connectWithRetry(Opts.SocketPath, RetryPolicy{}))
      << C.error();
  EXPECT_TRUE(C.ping());
  EXPECT_GE(Live.D.stats().AcceptRetries, 5u);
}

TEST(Resilience, AdmissionBoundShedsWithBusyAndRetrySucceeds) {
  TempDir Dir;
  DaemonOptions Opts;
  Opts.SocketPath = Dir.sub("qccd.sock");
  Opts.Jobs = 1;
  Opts.MaxActiveJobs = 1;
  LiveDaemon Live(Opts);

  std::vector<BatchJob> Jobs = smallJobs();
  // Park the first submit inside its admission slot: the delay fires
  // after the job reserved ActiveJobs but before it reaches the pool,
  // holding the daemon at capacity for a deterministic window.
  failpoint::ScopedSpec Spec("pool.submit=delay:1500@1");
  ASSERT_TRUE(Spec.Ok) << Spec.Error;

  ClientOutcome SlowOut;
  std::thread Slow([&] {
    DaemonClient A;
    if (A.connect(Opts.SocketPath))
      SlowOut = A.verify(requestFor(Jobs[0]));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  DaemonClient B;
  ASSERT_TRUE(B.connect(Opts.SocketPath)) << B.error();
  ClientOutcome Shed = B.verify(requestFor(Jobs[1]));
  EXPECT_FALSE(Shed.HaveVerdict);
  EXPECT_TRUE(Shed.Busy) << Shed.Error;
  EXPECT_NE(Shed.Error.find("capacity"), std::string::npos) << Shed.Error;
  // The Busy shed left the connection intact: the same client retries
  // with backoff and lands a verdict once the slot frees up.
  ClientOutcome Retried =
      B.verifyWithRetry(requestFor(Jobs[1]), Opts.SocketPath, RetryPolicy{});
  EXPECT_TRUE(Retried.HaveVerdict) << Retried.Error;

  Slow.join();
  EXPECT_TRUE(SlowOut.HaveVerdict) << SlowOut.Error;
  EXPECT_GE(Live.D.stats().JobsShed, 1u);
}

TEST(Resilience, ConnectionCapShedsWithBusy) {
  TempDir Dir;
  DaemonOptions Opts;
  Opts.SocketPath = Dir.sub("qccd.sock");
  Opts.Jobs = 1;
  Opts.MaxConnections = 1;
  LiveDaemon Live(Opts);

  DaemonClient First;
  ASSERT_TRUE(First.connect(Opts.SocketPath)) << First.error();
  ASSERT_TRUE(First.ping()); // Fully admitted before the probe below.

  int Fd = rawConnect(Opts.SocketPath);
  Frame F;
  ASSERT_EQ(readFrame(Fd, F), FrameStatus::Ok);
  EXPECT_EQ(F.Type, MsgType::Busy);
  EXPECT_NE(F.Payload.find("connection limit"), std::string::npos);
  close(Fd);
  EXPECT_GE(Live.D.stats().ConnectionsShed, 1u);
  EXPECT_TRUE(First.ping()); // The admitted connection is untouched.
}

TEST(Resilience, IdleConnectionDrawsCleanByeFrame) {
  TempDir Dir;
  DaemonOptions Opts;
  Opts.SocketPath = Dir.sub("qccd.sock");
  Opts.Jobs = 1;
  Opts.IdleTimeoutMillis = 100;
  LiveDaemon Live(Opts);

  int Fd = rawConnect(Opts.SocketPath);
  // Send nothing. The server must close with a Bye frame, not an Error
  // and not a silent drop.
  Frame F;
  EXPECT_EQ(readFrame(Fd, F), FrameStatus::Ok);
  EXPECT_EQ(F.Type, MsgType::Bye);
  EXPECT_NE(F.Payload.find("idle"), std::string::npos);
  EXPECT_EQ(readFrame(Fd, F), FrameStatus::Eof);
  close(Fd);

  for (int Spin = 0; Spin != 200 && Live.D.stats().IdleDisconnects == 0;
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(Live.D.stats().IdleDisconnects, 1u);
  EXPECT_EQ(Live.D.stats().ProtocolErrors, 0u);
  EXPECT_TRUE(serverAlive(Opts.SocketPath));
}

TEST(Resilience, DrainFinishesInFlightJobAndJournalsIt) {
  TempDir Dir;
  DaemonOptions Opts;
  Opts.SocketPath = Dir.sub("qccd.sock");
  Opts.Jobs = 1;
  Opts.JournalPath = Dir.sub("journal");
  LiveDaemon Live(Opts);

  std::vector<BatchJob> Jobs = smallJobs();
  // Park the job pre-pool so the drain request demonstrably lands while
  // it is in flight.
  failpoint::ScopedSpec Spec("pool.submit=delay:500@1");
  ASSERT_TRUE(Spec.Ok) << Spec.Error;

  ClientOutcome Out;
  DaemonClient C;
  ASSERT_TRUE(C.connect(Opts.SocketPath)) << C.error();
  std::thread Submitter([&] { Out = C.verify(requestFor(Jobs[0])); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  Live.D.requestDrain();

  // The graceful half of the contract: the in-flight job still gets its
  // verdict — drain never cancels work already admitted.
  Submitter.join();
  EXPECT_TRUE(Out.HaveVerdict) << Out.Error;
  EXPECT_TRUE(Out.Result.Ok);
  Live.Server.join();
  Live.Server = std::thread([] {});

  // Its definitive verdict is journaled (batch-journal line format).
  std::ifstream In(Opts.JournalPath);
  ASSERT_TRUE(In.good());
  std::string Line;
  ASSERT_TRUE(static_cast<bool>(std::getline(In, Line)));
  EXPECT_EQ(Line.rfind("ok ", 0), 0u) << Line;
  EXPECT_EQ(Line.size(), 3u + 32u) << Line; // "ok " + two 16-hex keys.
  EXPECT_EQ(Live.D.stats().JobsJournaled, 1u);

  // A post-drain exchange fails cleanly (Bye or a dropped connection),
  // never hangs.
  ClientOutcome After = C.verify(requestFor(Jobs[1]));
  EXPECT_FALSE(After.HaveVerdict);
  EXPECT_TRUE(After.ServerClosing || After.Transport) << After.Error;
}

TEST(Resilience, BackoffScheduleIsDeterministicAndBounded) {
  RetryPolicy P;
  P.BaseDelayMillis = 25;
  P.MaxDelayMillis = 1000;
  uint64_t RngA = 7, RngB = 7;
  for (unsigned A = 0; A != 12; ++A) {
    uint64_t D = backoffMillis(P, A, RngA);
    uint64_t Cap = std::min<uint64_t>(P.MaxDelayMillis, 25ull << A);
    EXPECT_LE(D, Cap) << A;
    EXPECT_GE(D, Cap / 2) << A; // Jitter spans only the top half.
    EXPECT_EQ(D, backoffMillis(P, A, RngB)) << A; // Same seed, same walk.
  }
  uint64_t RngC = 8; // A different seed decorrelates the schedule.
  bool AnyDiffer = false;
  uint64_t RngA2 = 7;
  for (unsigned A = 2; A != 8; ++A)
    AnyDiffer |= backoffMillis(P, A, RngA2) != backoffMillis(P, A, RngC);
  EXPECT_TRUE(AnyDiffer);
}

TEST(Resilience, UnreachableDaemonFailsFastWithTransportOutcome) {
  TempDir Dir;
  RetryPolicy P;
  P.ConnectAttempts = 2;
  P.BaseDelayMillis = 1;
  P.MaxDelayMillis = 2;
  DaemonClient C;
  ClientOutcome Out = C.verifyWithRetry(requestFor(smallJobs()[0]),
                                        Dir.sub("no-such.sock"), P);
  EXPECT_FALSE(Out.HaveVerdict);
  EXPECT_TRUE(Out.Transport);
  EXPECT_FALSE(Out.Error.empty());
}

TEST(Resilience, ClientReconnectsAcrossDaemonRestart) {
  TempDir Dir;
  DaemonOptions Opts;
  Opts.SocketPath = Dir.sub("qccd.sock");
  Opts.Jobs = 1;
  std::vector<BatchJob> Jobs = smallJobs();

  DaemonClient C;
  {
    LiveDaemon First(Opts);
    ClientOutcome Out =
        C.verifyWithRetry(requestFor(Jobs[0]), Opts.SocketPath, RetryPolicy{});
    ASSERT_TRUE(Out.HaveVerdict) << Out.Error;
  } // Shutdown: the client's connection dies with the daemon.

  LiveDaemon Second(Opts);
  // The stale connection surfaces as a transport error; verifyWithRetry
  // reconnects to the restarted daemon and resubmits idempotently.
  ClientOutcome Out =
      C.verifyWithRetry(requestFor(Jobs[1]), Opts.SocketPath, RetryPolicy{});
  EXPECT_TRUE(Out.HaveVerdict) << Out.Error;
  EXPECT_TRUE(Out.Result.Ok);
}

TEST(Resilience, TornServerFrameIsRetriedToAVerdict) {
  TempDir Dir;
  DaemonOptions Opts;
  Opts.SocketPath = Dir.sub("qccd.sock");
  Opts.Jobs = 1;
  LiveDaemon Live(Opts);

  // The server's first reply frame is torn mid-wire (a real half-frame,
  // then EPIPE semantics). The client must classify it as transport,
  // reconnect, and land the verdict on the retry. Hit 2, not 1: client
  // and server share this process's registry, and hit 1 is the client's
  // own Submit send.
  failpoint::ScopedSpec Spec("daemon.write=short@2");
  ASSERT_TRUE(Spec.Ok) << Spec.Error;
  DaemonClient C;
  ClientOutcome Out = C.verifyWithRetry(requestFor(smallJobs()[0]),
                                        Opts.SocketPath, RetryPolicy{});
  EXPECT_TRUE(Out.HaveVerdict) << Out.Error;
  EXPECT_TRUE(Out.Result.Ok);
}

//===----------------------------------------------------------------------===//
// The shared pool's submitted-task path
//===----------------------------------------------------------------------===//

TEST(PoolSubmit, RunsTasksInFifoOrderAcrossWorkers) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int I = 0; I != 100; ++I)
    Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.waitTasksIdle();
  EXPECT_EQ(Count.load(), 100);
  EXPECT_EQ(Pool.taskCount(), 0u);
}

TEST(PoolSubmit, InterleavesWithParallelForBatches) {
  ThreadPool Pool(4);
  std::atomic<int> TaskRuns{0}, BatchRuns{0};
  std::atomic<bool> BatchesDone{false};
  int Submitted = 0;
  // Tasks trickle in from a side thread for as long as thousands of short
  // parallelFor batches run: the daemon-serving-while-batching scenario,
  // with every batch boundary under submit traffic. The feeder keeps the
  // backlog small so the batches are not starved behind it.
  std::thread Feeder([&] {
    while (!BatchesDone.load(std::memory_order_acquire)) {
      if (Pool.taskCount() >= 16) {
        std::this_thread::yield();
        continue;
      }
      Pool.submit(
          [&TaskRuns] { TaskRuns.fetch_add(1, std::memory_order_relaxed); });
      ++Submitted;
    }
  });
  constexpr int Rounds = 3000;
  for (int Round = 0; Round != Rounds; ++Round)
    Pool.parallelFor(8, [&BatchRuns](size_t) {
      BatchRuns.fetch_add(1, std::memory_order_relaxed);
    });
  BatchesDone.store(true, std::memory_order_release);
  Feeder.join();
  Pool.waitTasksIdle();
  EXPECT_GT(Submitted, 0);
  EXPECT_EQ(TaskRuns.load(), Submitted);
  EXPECT_EQ(BatchRuns.load(), Rounds * 8);
}

TEST(PoolSubmit, DestructorFinishesQueuedTasks) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I != 64; ++I)
      Pool.submit([&Count] {
        Count.fetch_add(1, std::memory_order_relaxed);
      });
    // No waitTasksIdle: the destructor must finish the queue, so a
    // waiter blocked on any submitted task can never be stranded.
  }
  EXPECT_EQ(Count.load(), 64);
}

} // namespace
