//===- qccbench/cpp/Service.cpp - The qccd side of the benchmark ----------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "Service.h"

#include "daemon/Client.h"
#include "store/FuncStore.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace qcc;
using namespace qccbench;
namespace fs = std::filesystem;

namespace {

std::string describeStatus(int St) {
  if (WIFEXITED(St))
    return "exit " + std::to_string(WEXITSTATUS(St));
  if (WIFSIGNALED(St))
    return "signal " + std::to_string(WTERMSIG(St));
  return "unknown";
}

/// Polls for \p Pid to end for up to \p Millis; true (with \p Status)
/// once reaped.
bool reapWithin(pid_t Pid, unsigned Millis, int &Status) {
  for (unsigned Waited = 0;; Waited += 10) {
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    if (R == Pid || (R < 0 && errno == ECHILD))
      return true;
    if (Waited >= Millis)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

} // namespace

QccdProcess::~QccdProcess() {
  if (Pid > 0)
    stop();
}

bool QccdProcess::start(const std::string &Qccd, const std::string &Sock,
                        const std::string &StoreDir, unsigned Jobs,
                        const std::string &LogPath) {
  Socket = Sock;
  std::vector<std::string> Args = {Qccd,    "--socket", Sock,
                                   "--jobs", std::to_string(Jobs),
                                   "--store", StoreDir};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 1, LogPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&FA, 1, 2);
  int Rc = posix_spawn(&Pid, Qccd.c_str(), &FA, nullptr, Argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&FA);
  if (Rc != 0) {
    Pid = -1;
    Error = "cannot start " + Qccd + ": " + std::strerror(Rc);
    return false;
  }
  auto Start = Clock::now();
  while (msSince(Start) < 30000) {
    if (!running()) {
      Error = "qccd exited during start-up (" + Status + "); see " + LogPath;
      return false;
    }
    daemon::DaemonClient C;
    if (C.connect(Socket) && C.ping())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Error = "qccd did not answer a ping within 30 s";
  return false;
}

bool QccdProcess::running() {
  if (Pid <= 0)
    return false;
  int St = 0;
  if (::waitpid(Pid, &St, WNOHANG) == Pid) {
    Status = describeStatus(St);
    Pid = -1;
    return false;
  }
  return true;
}

std::string QccdProcess::stop() {
  if (!running())
    return Status.empty() ? "not started" : Status;
  {
    daemon::DaemonClient C;
    if (C.connect(Socket))
      C.shutdownServer();
  }
  int St = 0;
  std::string Suffix;
  if (!reapWithin(Pid, 20000, St)) {
    ::kill(Pid, SIGTERM);
    Suffix = " after SIGTERM";
    if (!reapWithin(Pid, 5000, St)) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &St, 0);
      Suffix = " after SIGKILL";
    }
  }
  Pid = -1;
  Status = describeStatus(St) + Suffix;
  return Status;
}

unsigned qccbench::populateStore(const std::string &StoreDir,
                                 const std::vector<BenchJob> &Jobs,
                                 unsigned Threads) {
  store::StoreOptions SO;
  SO.Dir = StoreDir;
  std::string Err;
  std::unique_ptr<store::VerificationStore> S =
      store::VerificationStore::open(SO, &Err);
  if (!S) {
    std::fprintf(stderr, "qccbench: %s\n", Err.c_str());
    return static_cast<unsigned>(Jobs.size());
  }
  // The CI-side verifier: a warm incremental engine, like qcc --batch
  // --incremental --store would use.
  incremental::Engine E;
  batch::BatchOptions BO;
  BO.Jobs = Threads;
  BO.Store = S.get();
  BO.Incremental = &E;
  std::vector<batch::BatchJob> BJ;
  for (const BenchJob &J : Jobs)
    BJ.push_back(J.Job);
  batch::BatchResult R = batch::runBatch(BJ, BO);
  unsigned Bad = 0;
  for (const batch::ProgramResult &P : R.Programs)
    Bad += !P.Ok;
  return Bad;
}

batch::ProgramResult TracingEngine::verify(const batch::BatchJob &BJ,
                                           bool CheckTheorem1,
                                           Supervisor *Sup,
                                           bool KeepProofArtifacts) {
  incremental::EngineStats Before = E.stats();
  batch::ProgramResult R;
  {
    SpanScope S(T, "incremental.verify", Job);
    R = E.verify(BJ, CheckTheorem1, Sup, KeepProofArtifacts);
  }
  incremental::EngineStats After = E.stats();
  T.count("incremental.funcs_reverified", Job,
          static_cast<double>(R.Metrics.FuncsReVerified));
  T.count("incremental.funcs_reused", Job,
          static_cast<double>(R.Metrics.FuncsReused));
  T.count("incremental.replay_hits", Job,
          static_cast<double>(After.ReplayHits - Before.ReplayHits));
  T.count("incremental.replay_misses", Job,
          static_cast<double>(After.ReplayMisses - Before.ReplayMisses));
  return R;
}

std::shared_ptr<const batch::ProgramResult>
TracingStore::fetch(const batch::JobKey &Key, const batch::BatchJob &BJ,
                    Supervisor *Sup) {
  std::shared_ptr<const batch::ProgramResult> R;
  {
    SpanScope Sc(T, "store.fetch", Job);
    R = S.fetch(Key, BJ, Sup);
  }
  ++(R ? Hits : Misses);
  return R;
}

void TracingStore::put(const batch::JobKey &Key,
                       const batch::ProgramResult &Result, Supervisor *Sup) {
  SpanScope Sc(T, "store.put", Job);
  S.put(Key, Result, Sup);
}

void qccbench::replayFuncPuts(const std::string &FuncDir,
                              const std::string &ProbeDir,
                              std::map<std::string, bool> &Seen, Tracer &T,
                              uint32_t Job) {
  std::error_code EC;
  fs::directory_iterator It(fs::path(FuncDir) / "funcs", EC), End;
  if (EC)
    return;
  store::FuncStore Src(FuncDir), Probe(ProbeDir);
  for (; It != End; It.increment(EC)) {
    std::string Name = It->path().filename().string();
    unsigned long long P = 0, V = 0;
    if (Seen[Name] ||
        std::sscanf(Name.c_str(), "%16llx-%16llx.qfn", &P, &V) != 2)
      continue;
    Seen[Name] = true;
    store::FuncKey Key{P, V};
    std::optional<std::string> Record = Src.fetchFunc(Key);
    if (!Record)
      continue;
    SpanScope Sc(T, "store.func_put", Job);
    Probe.putFunc(Key, *Record);
  }
}
