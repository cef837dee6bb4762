//===- qccbench/cpp/Service.h - The qccd side of the benchmark ------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What serve-mix needs beyond the batch engine: a child qccd process the
/// benchmark starts, waits for and always reaps; the set-up step that
/// verifies reopen files into a store from outside the daemon; and, for
/// the traced run, decorators that put spans around every call the batch
/// engine makes into the incremental engine and the persistent store.
///
//===----------------------------------------------------------------------===//

#ifndef QCCBENCH_SERVICE_H
#define QCCBENCH_SERVICE_H

#include "Bench.h"
#include "Trace.h"

#include "incremental/Incremental.h"
#include "store/Store.h"

#include <sys/types.h>

namespace qccbench {

/// A qccd child. The destructor stops and reaps it if stop() was not
/// called, so no path leaves the daemon running.
class QccdProcess {
public:
  QccdProcess() = default;
  ~QccdProcess();
  QccdProcess(const QccdProcess &) = delete;
  QccdProcess &operator=(const QccdProcess &) = delete;

  /// Starts `qccd --socket Socket --jobs Jobs --store StoreDir`, output to
  /// LogPath, and waits until it answers a ping. False (with Error) when
  /// it does not within 30 s.
  bool start(const std::string &Qccd, const std::string &Socket,
             const std::string &StoreDir, unsigned Jobs,
             const std::string &LogPath);
  pid_t pid() const { return Pid; }
  bool running();
  /// Asks the daemon to drain and exit, then reaps it (SIGKILL after a
  /// grace period). Returns its exit status as text: "exit 0",
  /// "signal 11", ...
  std::string stop();
  const std::string &error() const { return Error; }

private:
  pid_t Pid = -1;
  std::string Socket;
  std::string Error;
  std::string Status;
};

/// Verifies \p Jobs into the store at \p StoreDir from this process, as a
/// CI run would before a user reopens the files. Returns the jobs that
/// did not end in an Ok verdict.
unsigned populateStore(const std::string &StoreDir,
                       const std::vector<BenchJob> &Jobs, unsigned Threads);

/// incremental::Engine behind spans: "incremental.verify" per call, with
/// the per-job reuse counters recorded as counts.
class TracingEngine final : public qcc::batch::IncrementalEngine {
public:
  TracingEngine(qcc::incremental::Engine &E, Tracer &T) : E(E), T(T) {}
  qcc::batch::ProgramResult verify(const qcc::batch::BatchJob &Job,
                                   bool CheckTheorem1, qcc::Supervisor *Sup,
                                   bool KeepProofArtifacts) override;
  uint32_t Job = 0; ///< Job id the next spans belong to.

private:
  qcc::incremental::Engine &E;
  Tracer &T;
};

/// store::VerificationStore behind spans: "store.fetch" and "store.put".
class TracingStore final : public qcc::batch::ResultStore {
public:
  TracingStore(qcc::store::VerificationStore &S, Tracer &T) : S(S), T(T) {}
  std::shared_ptr<const qcc::batch::ProgramResult>
  fetch(const qcc::batch::JobKey &Key, const qcc::batch::BatchJob &Job,
        qcc::Supervisor *Sup) override;
  void put(const qcc::batch::JobKey &Key,
           const qcc::batch::ProgramResult &Result,
           qcc::Supervisor *Sup) override;
  uint32_t Job = 0;
  uint64_t Hits = 0, Misses = 0;

private:
  qcc::store::VerificationStore &S;
  Tracer &T;
};

/// Replays, through store::FuncStore::putFunc into \p ProbeDir, every
/// function record the engine wrote under \p FuncDir that is not in
/// \p Seen, timing each put as a "store.func_put" span of job \p Job.
void replayFuncPuts(const std::string &FuncDir, const std::string &ProbeDir,
                    std::map<std::string, bool> &Seen, Tracer &T,
                    uint32_t Job);

} // namespace qccbench

#endif // QCCBENCH_SERVICE_H
