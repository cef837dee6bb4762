//===- qccbench/cpp/Bench.h - Shared declarations of the benchmark --------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark drives qcc from outside, through the public functions of
/// each src/ module. This header holds what its files share: the seeded
/// inputs (Inputs.cpp), the job records every workload produces for the
/// expected-results check and the sample statistics (Records.cpp). The
/// span tracer (Trace.h) and the service side (Service.h: qccd child
/// process, store population, tracing decorators for the engine and the
/// store) have their own headers.
///
//===----------------------------------------------------------------------===//

#ifndef QCCBENCH_BENCH_H
#define QCCBENCH_BENCH_H

#include "batch/Batch.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace qccbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// splitmix64: the only randomness the benchmark uses, seeded by --seed.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
};

//===----------------------------------------------------------------------===//
// Inputs (Inputs.cpp)
//===----------------------------------------------------------------------===//

/// What a job is, for the expected-results check: corpus and reopen jobs
/// are checked against hand-written bounds, generated jobs against the
/// bounds of their seed-independent canonical variant.
enum class JobKind { Corpus, Reopen, Wide, Deep, Edit };

const char *jobKindName(JobKind K);

struct BenchJob {
  JobKind Kind = JobKind::Corpus;
  /// The expected-results key: the corpus id, or "wide"/"deep"/"lib.c".
  std::string Name;
  qcc::batch::BatchJob Job;
  /// The source without its reopen marker: jobs with equal ProgramText
  /// compile to the same program, so they share one watermark run.
  std::string ProgramText;
};

/// The 11 corpus jobs in a seeded order.
std::vector<BenchJob> coldCorpusJobs(uint64_t Seed);

/// The two replay-heavy jobs (wide loop, deep recursion) with seeded
/// constants, in a seeded order. \p Canonical gives the seed-independent
/// variant whose bounds every seeded variant must reproduce.
std::vector<BenchJob> replayHeavyJobs(uint64_t Seed, bool Canonical = false);

/// The serve-mix inputs: the 52-function library TU and the two request
/// kinds, generated per (connection, index).
class ServeInputs {
public:
  ServeInputs(uint64_t Seed, unsigned Connections);
  /// The unedited library TU (the daemon's warm-up job).
  BenchJob base() const;
  /// The library TU with seed-independent constants (bound reference).
  static BenchJob canonicalBase();
  /// Request \p Index of connection \p Conn: edits and reopens alternate,
  /// the first kind chosen by the seed per connection.
  BenchJob request(unsigned Conn, unsigned Index) const;
  bool isEdit(unsigned Conn, unsigned Index) const;
  /// Reopen requests of connection \p Conn among its first \p Count.
  std::vector<BenchJob> reopens(unsigned Conn, unsigned Count) const;

private:
  uint64_t Seed;
  std::vector<uint32_t> BaseConsts;
  std::vector<bool> EditFirst;
};

//===----------------------------------------------------------------------===//
// Job records: what the expected-results check reads
//===----------------------------------------------------------------------===//

/// Concrete call bound per function, in bytes; nullopt when parametric
/// or infinite. Sorted by function name.
using BoundList =
    std::vector<std::pair<std::string, std::optional<uint64_t>>>;

struct JobRecord {
  JobKind Kind = JobKind::Corpus;
  std::string Name;
  std::string ProgramText; ///< Watermark key (not emitted).
  bool HaveVerdict = false;
  bool Ok = false;
  std::string Status;
  BoundList Bounds;
  bool T1Checked = false, T1Ok = false;
  uint32_t T1Bytes = 0;
  std::optional<uint32_t> Watermark;
  /// Transport-level failure (busy, dropped connection, error frame);
  /// empty when a verdict arrived.
  std::string Failure;
};

JobRecord recordOf(const BenchJob &J, const qcc::batch::ProgramResult &R);
JobRecord failedRecord(const BenchJob &J, std::string Failure);

/// Fills every record's Watermark with driver::measureStack of its
/// program, one run per distinct ProgramText, on \p Threads threads.
void measureWatermarks(std::vector<JobRecord> &Records, unsigned Threads);

/// Bounds of a record as a JSON object {"fn": bytes|null}.
std::string boundsJson(const BoundList &B);
std::string jsonString(const std::string &S);

//===----------------------------------------------------------------------===//
// Host speed (HostSpeed.cpp)
//===----------------------------------------------------------------------===//

/// Runs the host-speed probe (fixed work that shares no code with qcc)
/// and returns its wall time in ms.
double hostProbeMs();

/// The probe's time on a 4-core x86-64 host at its usual speed. A time
/// measured right after a probe that took P ms is reported as
/// `Ms * ProbeNominalMs / P`: the time it would have taken had the probe
/// taken its nominal time.
constexpr double ProbeNominalMs = 25;

/// \p Ms scaled by the probe time \p ProbeMs measured with it.
inline double hostScaled(double Ms, double ProbeMs) {
  return Ms * ProbeNominalMs / ProbeMs;
}

//===----------------------------------------------------------------------===//
// Sample statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolated quantile \p Q in [0, 1] of \p V (sorted copy).
double quantile(std::vector<double> V, double Q);

/// The highest whole percentile with at least 10 samples beyond it, or
/// nullopt when there are fewer than 11 samples.
std::optional<unsigned> tailPercentile(size_t Samples);

/// Peak resident set (VmHWM) of process \p Pid ("self" for this one), in
/// MiB; nullopt when unreadable.
std::optional<double> peakRssMb(const std::string &Pid = "self");

} // namespace qccbench

#endif // QCCBENCH_BENCH_H
