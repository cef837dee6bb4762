//===- qccbench/cpp/Main.cpp - The qcc benchmark --------------------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload for a fixed time and writes a JSON report: the
/// metrics, the job records that run.py checks against expected.json, the
/// reference bounds of generated jobs, and the guards (determinism, qccd
/// exit status). Without --trace the metrics are the end-to-end ones,
/// measured untraced; with --trace they are the per-layer ones from a
/// separate traced run over the same inputs (see README.md).
///
///   qccbench --workload W --seed N --seconds S --trace 0|1
///            --qccd PATH --workdir DIR --out FILE
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Service.h"
#include "Trace.h"

#include "daemon/Client.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

using namespace qcc;
using namespace qccbench;
namespace fs = std::filesystem;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupReps = 5;
constexpr unsigned ServeConnections = 2;
/// Each serve-mix connection starts one round (a host-speed probe, an
/// edit and a reopen) per period, or at once when the previous round ran
/// late. The load is thus the same in every run: on a 4-core x86-64 host
/// a round takes about half the period, so a slower qccd shows first in
/// the latencies and only then in jobs_per_s. It also fixes how many reopen files
/// set-up verifies and how much qccd's result cache holds at the end.
constexpr double ServeRoundMs = 100;

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string Qccd, WorkDir, Out;
};

struct Metric {
  std::string Name, Unit;
  double Value = NAN; ///< NaN is emitted as null (not sampled).
  size_t Samples = 0;
  double Iqr = NAN;
  std::optional<unsigned> Percentile;
};

struct Guard {
  std::string Name;
  bool Ok = true;
  std::string Detail;
};

struct Report {
  std::vector<Metric> Metrics;
  std::vector<Guard> Guards;
  std::vector<JobRecord> Jobs;
  std::map<std::string, BoundList> Reference;
  std::vector<std::string> Notes;
  double MeasuredSeconds = 0;

  void add(std::string Name, std::string Unit, double Value,
           size_t Samples = 1) {
    Metrics.push_back({std::move(Name), std::move(Unit), Value, Samples,
                       NAN, std::nullopt});
  }
  /// Median and tail (the highest percentile with 10 samples beyond it)
  /// of \p V as NAME_p50 and NAME_tail.
  void addLatency(const std::string &Name, const std::vector<double> &V) {
    Metric P50{Name + "_p50", "ms", quantile(V, 0.5), V.size(),
               quantile(V, 0.75) - quantile(V, 0.25), std::nullopt};
    Metrics.push_back(P50);
    std::optional<unsigned> P = tailPercentile(V.size());
    Metric Tail{Name + "_tail", "ms", P ? quantile(V, *P / 100.0) : NAN,
                V.size(), NAN, P};
    Metrics.push_back(Tail);
  }
};

std::string num(double V) {
  if (std::isnan(V) || std::isinf(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

/// \p V with two decimals, for the notes.
std::string fixed2(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.2f", V);
  return Buf;
}

bool writeReport(const Report &R, const Args &A, const std::string &Path) {
  std::string S = "{\"schema\":\"qccbench-report-v1\"";
  S += ",\"workload\":" + jsonString(A.Workload);
  S += ",\"seed\":" + std::to_string(A.Seed);
  S += ",\"trace\":" + std::string(A.Trace ? "1" : "0");
  S += ",\"hardware_concurrency\":" +
       std::to_string(std::thread::hardware_concurrency());
  S += ",\"build_type\":" + jsonString(QCCBENCH_BUILD_TYPE);
  S += ",\"measured_s\":" + num(R.MeasuredSeconds);
  S += ",\"metrics\":{";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    S += (I ? "," : "") + jsonString(M.Name) + ":{\"value\":" +
         num(M.Value) + ",\"unit\":" + jsonString(M.Unit) +
         ",\"samples\":" + std::to_string(M.Samples);
    if (!std::isnan(M.Iqr))
      S += ",\"iqr\":" + num(M.Iqr);
    if (M.Percentile)
      S += ",\"percentile\":" + std::to_string(*M.Percentile);
    S += "}";
  }
  S += "},\"guards\":[";
  for (size_t I = 0; I != R.Guards.size(); ++I)
    S += std::string(I ? "," : "") + "{\"name\":" +
         jsonString(R.Guards[I].Name) +
         ",\"ok\":" + (R.Guards[I].Ok ? "true" : "false") +
         ",\"detail\":" + jsonString(R.Guards[I].Detail) + "}";
  S += "],\"reference_bounds\":{";
  bool First = true;
  for (const auto &[Name, B] : R.Reference) {
    S += (First ? "" : ",") + jsonString(Name) + ":" + boundsJson(B);
    First = false;
  }
  S += "},\"notes\":[";
  for (size_t I = 0; I != R.Notes.size(); ++I)
    S += (I ? "," : "") + jsonString(R.Notes[I]);
  S += "],\"jobs\":[\n";
  for (size_t I = 0; I != R.Jobs.size(); ++I) {
    const JobRecord &J = R.Jobs[I];
    S += (I ? ",\n" : "") + std::string("{\"kind\":") +
         jsonString(jobKindName(J.Kind)) + ",\"name\":" + jsonString(J.Name);
    if (!J.Failure.empty()) {
      S += ",\"failure\":" + jsonString(J.Failure) + "}";
      continue;
    }
    S += ",\"ok\":" + std::string(J.Ok ? "true" : "false") +
         ",\"status\":" + jsonString(J.Status) +
         ",\"bounds\":" + boundsJson(J.Bounds) + ",\"t1\":{\"checked\":" +
         (J.T1Checked ? "true" : "false") +
         ",\"ok\":" + (J.T1Ok ? "true" : "false") +
         ",\"stack_bytes\":" + std::to_string(J.T1Bytes) + "}" +
         ",\"watermark\":" +
         (J.Watermark ? std::to_string(*J.Watermark) : "null") + "}";
  }
  S += "\n]}\n";
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(S.data(), 1, S.size(), F) == S.size();
  return std::fclose(F) == 0 && Ok;
}

unsigned threads() { return std::max(1u, std::thread::hardware_concurrency()); }

std::vector<batch::BatchJob> batchJobs(const std::vector<BenchJob> &Jobs) {
  std::vector<batch::BatchJob> Out;
  for (const BenchJob &J : Jobs)
    Out.push_back(J.Job);
  return Out;
}

std::vector<BenchJob> batchWorkloadJobs(const Args &A) {
  return A.Workload == "cold-corpus" ? coldCorpusJobs(A.Seed)
                                     : replayHeavyJobs(A.Seed);
}

/// Bounds of the seed-independent variants every generated job of the
/// workload must reproduce.
void addReferenceBounds(const Args &A, Report &R) {
  std::vector<BenchJob> Ref;
  if (A.Workload == "replay-heavy")
    Ref = replayHeavyJobs(0, /*Canonical=*/true);
  else if (A.Workload == "serve-mix")
    Ref.push_back(ServeInputs::canonicalBase());
  for (const BenchJob &J : Ref)
    R.Reference[J.Name] = recordOf(J, batch::verifyOne(J.Job, true)).Bounds;
}

batch::BatchOptions coldOptions() {
  batch::BatchOptions BO;
  BO.Jobs = 1;
  BO.CheckTheorem1 = true;
  return BO;
}

//===----------------------------------------------------------------------===//
// cold-corpus and replay-heavy, untraced
//===----------------------------------------------------------------------===//

int runBatchWorkload(const Args &A, Report &R) {
  batch::BatchOptions BO = coldOptions();
  std::vector<BenchJob> Jobs;
  std::vector<batch::BatchJob> BJ;
  std::vector<double> Setups;
  for (unsigned I = 0; I != SetupReps; ++I) {
    double Probe = hostProbeMs();
    auto Start = Clock::now();
    Jobs = batchWorkloadJobs(A);
    BJ = batchJobs(Jobs);
    batch::runBatch(BJ, BO); // Warm-up pass, discarded.
    Setups.push_back(hostScaled(msSince(Start), Probe) / 1000.0);
  }

  // Every pass is timed right after a host-speed probe and scaled by it.
  std::vector<double> PassMs, JobMs, RawPassMs, ProbeMs;
  size_t JobCount = 0;
  std::string FirstDet, LastDet;
  size_t Verified = 0;
  double ScaledTotalMs = 0;
  auto Start = Clock::now();
  while (PassMs.size() < 2 || msSince(Start) < A.Seconds * 1000) {
    double Probe = hostProbeMs();
    auto P0 = Clock::now();
    batch::BatchResult Res = batch::runBatch(BJ, BO);
    double Raw = msSince(P0);
    RawPassMs.push_back(Raw);
    ProbeMs.push_back(Probe);
    PassMs.push_back(hostScaled(Raw, Probe));
    ScaledTotalMs += PassMs.back();
    double SumMs = 0;
    for (size_t I = 0; I != Res.Programs.size(); ++I) {
      const batch::ProgramResult &P = Res.Programs[I];
      SumMs += static_cast<double>(P.Metrics.TotalMicros) / 1000.0;
      R.Jobs.push_back(recordOf(Jobs[I], P));
      Verified += P.Ok;
    }
    JobMs.push_back(
        hostScaled(SumMs / static_cast<double>(Res.Programs.size()), Probe));
    JobCount += Res.Programs.size();
    LastDet = batch::metricsJson(Res, batch::JsonDetail::Deterministic);
    if (FirstDet.empty())
      FirstDet = LastDet;
  }
  R.MeasuredSeconds = msSince(Start) / 1000.0;

  R.addLatency("pass_ms", PassMs);
  // Verified jobs per second of scaled pass time.
  R.add("jobs_per_s", "1/s",
        static_cast<double>(Verified) / (ScaledTotalMs / 1000.0), JobCount);
  // A batch workload has one request kind, every job verified cold: its
  // samples are the mean job time of each pass. Single job times mix
  // programs of very different cost, and their median would fall
  // between cost clusters.
  R.addLatency("edit_ms", JobMs);
  R.addLatency("reopen_ms", JobMs);
  R.add("setup_s", "s", quantile(Setups, 0.5), Setups.size());
  R.add("peak_rss_mb", "MB", peakRssMb().value_or(NAN));

  R.Notes.push_back("unscaled pass_ms_p50 " +
                    fixed2(quantile(RawPassMs, 0.5)) +
                    " ms, host-speed probe p50 " +
                    fixed2(quantile(ProbeMs, 0.5)) + " ms (nominal " +
                    fixed2(ProbeNominalMs) + " ms)");
  R.Guards.push_back({"deterministic-metrics-first-last", FirstDet == LastDet,
                      std::to_string(PassMs.size()) + " passes"});
  addReferenceBounds(A, R);
  measureWatermarks(R.Jobs, threads());
  return 0;
}

//===----------------------------------------------------------------------===//
// serve-mix, untraced
//===----------------------------------------------------------------------===//

/// One full set-up: generate the inputs, verify every reopen file of the
/// run into a fresh store from this process, start qccd on that store
/// and warm it with the unedited library TU on every connection.
bool setUpServe(const Args &A, const ServeInputs &In, unsigned PoolPerConn,
                const std::string &Dir, QccdProcess &Daemon,
                std::string &Err) {
  fs::create_directories(Dir);
  const std::string Socket = Dir + "/q.sock";
  std::vector<BenchJob> Reopens;
  for (unsigned C = 0; C != ServeConnections; ++C)
    for (BenchJob &J : In.reopens(C, PoolPerConn))
      Reopens.push_back(std::move(J));
  if (unsigned Bad = populateStore(Dir + "/store", Reopens, threads())) {
    Err = std::to_string(Bad) + " reopen files failed to verify at set-up";
    return false;
  }
  if (!Daemon.start(A.Qccd, Socket, Dir + "/store", ServeConnections,
                    Dir + "/qccd.log")) {
    Err = Daemon.error();
    return false;
  }
  daemon::JobRequest Req;
  Req.Job = In.base().Job;
  for (unsigned C = 0; C != ServeConnections; ++C) {
    daemon::DaemonClient Client;
    if (!Client.connect(Socket)) {
      Err = "warm-up connect: " + Client.error();
      return false;
    }
    daemon::ClientOutcome O = Client.verify(Req);
    if (!O.HaveVerdict || !O.Result.Ok) {
      Err = "warm-up verification of the library TU failed: " + O.Error;
      return false;
    }
  }
  return true;
}

int runServeMix(const Args &A, Report &R) {
  const unsigned Rounds =
      std::max(1u, static_cast<unsigned>(A.Seconds * 1000 / ServeRoundMs));
  const unsigned PoolPerConn = 2 * Rounds;
  ServeInputs In(A.Seed, ServeConnections);
  std::vector<double> Setups;
  std::string Dir;
  std::unique_ptr<QccdProcess> Daemon;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    if (Daemon) {
      // Only the last set-up serves; the earlier ones are timed, stopped
      // and removed.
      std::string Exit = Daemon->stop();
      if (Exit != "exit 0")
        R.Guards.push_back({"qccd-exit-setup", false, Exit});
      fs::remove_all(Dir);
    }
    Dir = A.WorkDir + "/serve-" + std::to_string(Rep);
    Daemon = std::make_unique<QccdProcess>();
    double Probe = hostProbeMs();
    auto Start = Clock::now();
    std::string Err;
    if (!setUpServe(A, In, PoolPerConn, Dir, *Daemon, Err)) {
      std::fprintf(stderr, "qccbench: serve-mix set-up: %s\n", Err.c_str());
      return 1;
    }
    Setups.push_back(hostScaled(msSince(Start), Probe) / 1000.0);
  }
  const std::string Socket = Dir + "/q.sock";
  R.Notes.push_back(
      "qccd VmHWM after set-up " +
      num(peakRssMb(std::to_string(Daemon->pid())).value_or(NAN)) + " MB");

  struct ConnResult {
    std::vector<double> EditMs, ReopenMs, RoundMs, RawEditMs, RawReopenMs,
        ProbeMs;
    std::vector<JobRecord> Records;
    unsigned Busy = 0, Dropped = 0, Reconnects = 0, Verified = 0, Late = 0;
  };
  std::vector<ConnResult> Conns(ServeConnections);
  auto Start = Clock::now();
  auto Client = [&](unsigned C) {
    ConnResult &Out = Conns[C];
    daemon::DaemonClient Cl;
    if (!Cl.connect(Socket))
      return;
    for (unsigned Round = 0; Round != Rounds; ++Round) {
      // Connections are offset by a fraction of the period.
      auto Due = Start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 (Round + double(C) / ServeConnections) *
                                 ServeRoundMs));
      if (Clock::now() > Due + std::chrono::milliseconds(
                                   static_cast<int>(ServeRoundMs)))
        ++Out.Late;
      std::this_thread::sleep_until(Due);
      // The round's latencies are scaled by a host-speed probe run by
      // this connection right before it.
      double Probe = hostProbeMs();
      Out.ProbeMs.push_back(Probe);
      double RoundMs = 0;
      bool RoundOk = true;
      for (unsigned I = 2 * Round; I != 2 * Round + 2; ++I) {
        BenchJob J = In.request(C, I);
        daemon::JobRequest Req;
        Req.Job = J.Job;
        auto T0 = Clock::now();
        daemon::ClientOutcome O = Cl.verify(Req);
        double Raw = msSince(T0), Ms = hostScaled(Raw, Probe);
        if (O.HaveVerdict) {
          (J.Kind == JobKind::Edit ? Out.EditMs : Out.ReopenMs).push_back(Ms);
          (J.Kind == JobKind::Edit ? Out.RawEditMs : Out.RawReopenMs)
              .push_back(Raw);
          RoundMs += Ms;
          Out.Records.push_back(recordOf(J, O.Result));
          Out.Verified += O.Result.Ok;
          continue;
        }
        // A failed request is recorded, never resubmitted.
        RoundOk = false;
        std::string Why = O.Busy ? "busy"
                          : O.ServerClosing ? "server closed: " + O.Error
                          : O.Transport     ? "connection dropped: " + O.Error
                                            : "error: " + O.Error;
        Out.Records.push_back(failedRecord(J, Why));
        Out.Busy += O.Busy;
        if (O.Busy)
          continue;
        ++Out.Dropped;
        Cl.disconnect();
        if (!Cl.connect(Socket))
          return; // qccd is gone; its exit status tells why.
        ++Out.Reconnects;
      }
      if (RoundOk)
        Out.RoundMs.push_back(RoundMs);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != ServeConnections; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &T : Threads)
    T.join();
  R.MeasuredSeconds = msSince(Start) / 1000.0;

  std::optional<double> Rss = peakRssMb(std::to_string(Daemon->pid()));
  std::string Exit = Daemon->stop();
  R.Guards.push_back({"qccd-exit", Exit == "exit 0", Exit});

  std::vector<double> Edit, Reopen, Round, RawEdit, RawReopen, Probes;
  unsigned Verified = 0, Busy = 0, Dropped = 0, Reconnects = 0, Late = 0;
  for (ConnResult &C : Conns) {
    Edit.insert(Edit.end(), C.EditMs.begin(), C.EditMs.end());
    Reopen.insert(Reopen.end(), C.ReopenMs.begin(), C.ReopenMs.end());
    Round.insert(Round.end(), C.RoundMs.begin(), C.RoundMs.end());
    RawEdit.insert(RawEdit.end(), C.RawEditMs.begin(), C.RawEditMs.end());
    RawReopen.insert(RawReopen.end(), C.RawReopenMs.begin(),
                     C.RawReopenMs.end());
    Probes.insert(Probes.end(), C.ProbeMs.begin(), C.ProbeMs.end());
    for (JobRecord &J : C.Records)
      R.Jobs.push_back(std::move(J));
    Verified += C.Verified;
    Busy += C.Busy;
    Dropped += C.Dropped;
    Reconnects += C.Reconnects;
    Late += C.Late;
  }
  // A serve-mix "pass" is one round of a connection: one edit and one
  // reopen, back to back.
  R.addLatency("pass_ms", Round);
  R.add("jobs_per_s", "1/s", Verified / R.MeasuredSeconds, R.Jobs.size());
  R.addLatency("edit_ms", Edit);
  R.addLatency("reopen_ms", Reopen);
  R.add("setup_s", "s", quantile(Setups, 0.5), Setups.size());
  R.add("peak_rss_mb", "MB", Rss.value_or(NAN));
  R.Notes.push_back("unscaled edit_ms_p50 " + fixed2(quantile(RawEdit, 0.5)) +
                    " ms, reopen_ms_p50 " +
                    fixed2(quantile(RawReopen, 0.5) * 1000) +
                    " us, host-speed probe p50 " +
                    fixed2(quantile(Probes, 0.5)) + " ms (nominal " +
                    fixed2(ProbeNominalMs) + " ms)");
  R.Notes.push_back("busy replies " + std::to_string(Busy) +
                    ", dropped connections " + std::to_string(Dropped) +
                    ", reconnects " + std::to_string(Reconnects) +
                    ", rounds started a period late " + std::to_string(Late));

  addReferenceBounds(A, R);
  measureWatermarks(R.Jobs, threads());
  return 0;
}

//===----------------------------------------------------------------------===//
// The traced run
//===----------------------------------------------------------------------===//

/// The jobs a traced pass covers: the batch workloads' job set, or for
/// serve-mix the first requests of each connection in arrival order.
std::vector<BenchJob> traceJobs(const Args &A) {
  if (A.Workload != "serve-mix")
    return batchWorkloadJobs(A);
  ServeInputs In(A.Seed, ServeConnections);
  std::vector<BenchJob> Out;
  for (unsigned I = 0; I != 4; ++I)
    for (unsigned C = 0; C != ServeConnections; ++C)
      Out.push_back(In.request(C, I));
  return Out;
}

/// Counts per job, in a fixed name order, for the determinism guard.
using CountVector = std::vector<double>;

CountVector countsOf(const Tracer &T, uint32_t Job,
                     const std::vector<std::string> &Names) {
  CountVector V;
  for (const std::string &N : Names) {
    auto M = T.perJobCount(N);
    auto It = M.find(Job);
    V.push_back(It == M.end() ? -1 : It->second);
  }
  return V;
}

/// Two service passes: the jobs through batch::runSupervisedJob with the
/// incremental engine and the store behind tracing decorators. For
/// serve-mix the store first receives the reopen files from outside and
/// the engine is warmed with the library TU, as qccd is at set-up; the
/// batch workloads verify their jobs cold, then fetch them back.
bool traceService(const Args &A, const std::vector<BenchJob> &Jobs,
                  Tracer &T, Report &R) {
  const bool Serve = A.Workload == "serve-mix";
  std::vector<std::vector<CountVector>> PerPass;
  const std::vector<std::string> CountNames = {
      "incremental.funcs_reverified", "incremental.funcs_reused"};
  for (unsigned Pass = 0; Pass != 2; ++Pass) {
    std::string Dir = A.WorkDir + "/trace-service-" + std::to_string(Pass);
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    std::string StoreDir = Dir + "/store", FuncDir = StoreDir + "/funcs";
    if (Serve) {
      std::vector<BenchJob> Reopens;
      for (const BenchJob &J : Jobs)
        if (J.Kind == JobKind::Reopen)
          Reopens.push_back(J);
      if (populateStore(StoreDir, Reopens, threads()) != 0) {
        std::fprintf(stderr, "qccbench: reopen files failed to verify\n");
        return false;
      }
    }
    store::StoreOptions SO;
    SO.Dir = StoreDir;
    std::string Err;
    auto Store = store::VerificationStore::open(SO, &Err);
    if (!Store) {
      std::fprintf(stderr, "qccbench: %s\n", Err.c_str());
      return false;
    }
    incremental::EngineOptions EO;
    EO.FuncStoreDir = FuncDir;
    incremental::Engine Engine(EO);
    batch::BatchOptions BO = coldOptions();
    std::map<std::string, bool> Seen;
    if (Serve) {
      BO.Store = Store.get();
      BO.Incremental = &Engine;
      ServeInputs In(A.Seed, ServeConnections);
      batch::runSupervisedJob(In.base().Job, BO, nullptr);
      // The warm-up's own function records are set-up, not probed.
      for (const auto &E : fs::directory_iterator(fs::path(FuncDir) / "funcs"))
        Seen[E.path().filename().string()] = true;
    }
    TracingEngine TE(Engine, T);
    TracingStore TS(*Store, T);
    BO.Store = &TS;
    BO.Incremental = &TE;
    std::vector<CountVector> Counts;
    for (unsigned Round = 0; Round != (Serve ? 1u : 2u); ++Round)
      for (const BenchJob &J : Jobs) {
        uint32_t Id = T.newJob();
        TE.Job = TS.Job = Id;
        batch::ProgramResult Res = batch::runSupervisedJob(J.Job, BO, nullptr);
        R.Jobs.push_back(recordOf(J, Res));
        replayFuncPuts(FuncDir, Dir + "/probe-funcs", Seen, T, Id);
        Counts.push_back(countsOf(T, Id, CountNames));
      }
    uint32_t Totals = T.newJob();
    T.count("store.quarantined", Totals,
            static_cast<double>(Store->stats().Quarantined));
    T.count("store.hits", Totals, static_cast<double>(TS.Hits));
    T.count("store.misses", Totals, static_cast<double>(TS.Misses));
    PerPass.push_back(std::move(Counts));
  }
  R.Guards.push_back({"deterministic-service-counts",
                      PerPass[0] == PerPass[1],
                      "functions reused and re-verified per job, two passes"});
  return true;
}

/// The protocol floor and the failure counters of a live qccd: pings on
/// every connection, then the traced jobs submitted once per connection.
bool traceDaemon(const Args &A, const std::vector<BenchJob> &Jobs, Tracer &T,
                 Report &R) {
  std::string Dir = A.WorkDir + "/trace-daemon";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  QccdProcess Q;
  if (!Q.start(A.Qccd, Dir + "/q.sock", Dir + "/store", ServeConnections,
               Dir + "/qccd.log")) {
    std::fprintf(stderr, "qccbench: %s\n", Q.error().c_str());
    return false;
  }
  uint32_t Counter = T.newJob();
  double Busy = 0, Reconnects = 0;
  for (unsigned C = 0; C != ServeConnections; ++C) {
    daemon::DaemonClient Cl;
    if (!Cl.connect(Dir + "/q.sock")) {
      R.Guards.push_back({"daemon-probe-connect", false, Cl.error()});
      break;
    }
    for (unsigned I = 0; I != 200; ++I) {
      SpanScope S(T, "daemon.ping", T.newJob());
      Cl.ping();
    }
    for (const BenchJob &J : Jobs) {
      daemon::JobRequest Req;
      Req.Job = J.Job;
      daemon::ClientOutcome O = Cl.verify(Req);
      if (O.HaveVerdict) {
        R.Jobs.push_back(recordOf(J, O.Result));
        continue;
      }
      R.Jobs.push_back(failedRecord(J, O.Busy ? "busy" : "error: " + O.Error));
      Busy += O.Busy;
      if (!O.Busy) {
        Cl.disconnect();
        if (!Cl.connect(Dir + "/q.sock"))
          break;
        ++Reconnects;
      }
    }
  }
  T.count("daemon.busy_replies", Counter, Busy);
  T.count("daemon.reconnects", Counter, Reconnects);
  std::string Exit = Q.stop();
  R.Guards.push_back({"qccd-exit", Exit == "exit 0", Exit});
  return true;
}

/// Median and spread over jobs of span NAME as metric NAME_ms.
void addLayerMs(Report &R, const Tracer &T, const std::string &Span) {
  std::vector<double> V;
  for (const auto &[Job, Ms] : T.perJobMs(Span))
    V.push_back(Ms);
  R.Metrics.push_back({Span + "_ms", "ms", quantile(V, 0.5), V.size(),
                       quantile(V, 0.75) - quantile(V, 0.25), std::nullopt});
}

void addLayerCount(Report &R, const Tracer &T, const std::string &Name) {
  std::vector<double> V;
  for (const auto &[Job, C] : T.perJobCount(Name))
    V.push_back(C);
  R.Metrics.push_back({Name, "count", quantile(V, 0.5), V.size(),
                       quantile(V, 0.75) - quantile(V, 0.25), std::nullopt});
}

double total(const std::map<uint32_t, double> &M) {
  double S = 0;
  for (const auto &[K, V] : M)
    S += V;
  return S;
}

int runTraced(const Args &A, Report &R) {
  std::vector<BenchJob> Jobs = traceJobs(A);
  std::vector<batch::BatchJob> BJ = batchJobs(Jobs);
  batch::BatchOptions BO = coldOptions();
  batch::runBatch(BJ, BO); // Warm-up, as in the untraced run.
  Tracer T;

  // Untraced and traced passes alternate, so the tracing overhead is
  // measured under the same conditions.
  const std::vector<std::string> CountNames = {
      "rtl.nodes",           "rtl.nodes_after_opt",  "interp.replay_events",
      "cminor.replay_events", "rtl.replay_events",   "mach.replay_events",
      "x86.replay_events",   "logic.proof_nodes"};
  std::vector<double> Untraced, Traced;
  std::vector<std::vector<CountVector>> PassCounts;
  auto Start = Clock::now();
  while (Traced.size() < 2 || msSince(Start) < A.Seconds * 1000) {
    auto U0 = Clock::now();
    batch::runBatch(BJ, BO);
    Untraced.push_back(msSince(U0));

    double ProbeMs = 0;
    std::vector<CountVector> Counts;
    auto T0 = Clock::now();
    for (const BenchJob &J : Jobs) {
      uint32_t Id = T.newJob();
      R.Jobs.push_back(tracePipeline(J, T, Id, ProbeMs));
      Counts.push_back(countsOf(T, Id, CountNames));
    }
    Traced.push_back(msSince(T0) - ProbeMs);
    PassCounts.push_back(std::move(Counts));
  }
  R.MeasuredSeconds = msSince(Start) / 1000.0;
  bool Same = std::all_of(PassCounts.begin(), PassCounts.end(),
                          [&](const auto &C) { return C == PassCounts[0]; });
  R.Guards.push_back({"deterministic-layer-counts", Same,
                      std::to_string(PassCounts.size()) + " traced passes"});

  if (!traceService(A, Jobs, T, R) || !traceDaemon(A, Jobs, T, R))
    return 1;

  for (const char *S :
       {"frontend.parse", "cminor.lower", "cminor.verify", "rtl.lower",
        "rtl.opt", "rtl.constprop", "rtl.dce", "rtl.verify", "mach.lower",
        "mach.verify", "x86.emit", "x86.verify", "interp.replay",
        "cminor.replay", "rtl.replay", "mach.replay", "x86.replay",
        "events.refine", "driver.validate", "analysis.analyze", "logic.check",
        "measure.theorem1", "incremental.verify", "store.put",
        "store.func_put", "store.fetch", "daemon.ping"})
    addLayerMs(R, T, S);
  for (const std::string &C : CountNames)
    addLayerCount(R, T, C);
  addLayerCount(R, T, "incremental.funcs_reverified");
  addLayerCount(R, T, "store.quarantined");
  addLayerCount(R, T, "daemon.busy_replies");
  addLayerCount(R, T, "daemon.reconnects");

  // validateTranslation minus what the five replays and the refinement
  // checks account for, per job.
  std::vector<double> Gap;
  {
    auto Validate = T.perJobMs("driver.validate");
    std::vector<std::map<uint32_t, double>> Parts;
    for (const char *P : {"interp.replay", "cminor.replay", "rtl.replay",
                          "mach.replay", "x86.replay", "events.refine"})
      Parts.push_back(T.perJobMs(P));
    for (const auto &[Job, Ms] : Validate) {
      double G = Ms;
      for (const auto &P : Parts)
        if (auto It = P.find(Job); It != P.end())
          G -= It->second;
      Gap.push_back(G);
    }
  }
  R.Metrics.push_back({"driver.validate_unattributed_ms", "ms",
                       quantile(Gap, 0.5), Gap.size(),
                       quantile(Gap, 0.75) - quantile(Gap, 0.25),
                       std::nullopt});

  auto Ratio = [&](const char *Name, double Num, double Den) {
    R.add(Name, "ratio", Den > 0 ? Num / Den : NAN,
          static_cast<size_t>(Den));
  };
  double Reused = total(T.perJobCount("incremental.funcs_reused"));
  double ReVerified = total(T.perJobCount("incremental.funcs_reverified"));
  Ratio("incremental.reuse_ratio", Reused, Reused + ReVerified);
  double RHits = total(T.perJobCount("incremental.replay_hits"));
  double RMiss = total(T.perJobCount("incremental.replay_misses"));
  Ratio("incremental.replay_hit_ratio", RHits, RHits + RMiss);
  double SHits = total(T.perJobCount("store.hits"));
  double SMiss = total(T.perJobCount("store.misses"));
  Ratio("store.hit_ratio", SHits, SHits + SMiss);

  R.Metrics.push_back({"trace.overhead_ms", "ms",
                       quantile(Traced, 0.5) - quantile(Untraced, 0.5),
                       Traced.size(), NAN, std::nullopt});
  R.Notes.push_back("pass_ms_p50 traced " + num(quantile(Traced, 0.5)) +
                    " ms vs untraced " + num(quantile(Untraced, 0.5)) +
                    " ms (probe calls excluded)");

  T.write(A.WorkDir + "/spans.jsonl");
  addReferenceBounds(A, R);
  measureWatermarks(R.Jobs, threads());
  return 0;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--qccd")
      A.Qccd = V;
    else if (K == "--workdir")
      A.WorkDir = V;
    else if (K == "--out")
      A.Out = V;
    else
      return false;
    if (End && *End)
      return false;
  }
  return (A.Workload == "cold-corpus" || A.Workload == "replay-heavy" ||
          A.Workload == "serve-mix") &&
         A.Seconds > 0 && !A.Qccd.empty() && !A.WorkDir.empty() &&
         !A.Out.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: qccbench --workload cold-corpus|replay-heavy|"
                 "serve-mix --seed N --seconds S --trace 0|1 --qccd PATH "
                 "--workdir DIR --out FILE\n");
    return 2;
  }
  fs::create_directories(A.WorkDir);
  Report R;
  int Rc = A.Trace                        ? runTraced(A, R)
           : A.Workload == "serve-mix"    ? runServeMix(A, R)
                                          : runBatchWorkload(A, R);
  if (Rc != 0)
    return Rc;
  if (!writeReport(R, A, A.Out)) {
    std::fprintf(stderr, "qccbench: cannot write %s\n", A.Out.c_str());
    return 1;
  }
  return 0;
}
