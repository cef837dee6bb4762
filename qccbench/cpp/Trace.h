//===- qccbench/cpp/Trace.h - Spans around calls into each layer ----------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's instrument. Spans are recorded by the benchmark
/// around its own calls into each src/ module — never inside qcc — and
/// kept in memory until the run writes them out. Every span carries its
/// name, start, end, parent span and job id; counts are recorded at the
/// same boundaries under the same job id.
///
/// tracePipeline composes one verification from the public per-layer
/// functions exactly as driver::compile plus batch::verifyOne's Theorem-1
/// run do, so each layer gets its own span. A few spans are *probes*:
/// extra calls made only to attribute time (the whole
/// driver::validateTranslation call, constant propagation and dead-code
/// elimination on a copy of the RTL, a re-check of every derivation, and
/// the E5 watermark run). Their time is reported separately and excluded
/// from the traced pass time, so the tracing overhead compares like with
/// like.
///
//===----------------------------------------------------------------------===//

#ifndef QCCBENCH_TRACE_H
#define QCCBENCH_TRACE_H

#include "Bench.h"

#include <string>
#include <vector>

namespace qccbench {

class Tracer {
public:
  struct Span {
    const char *Name;
    uint32_t Job;
    int32_t Parent; ///< Index of the enclosing span, -1 at top level.
    double StartUs, EndUs;
  };
  struct Count {
    const char *Name;
    uint32_t Job;
    double Value;
  };

  Tracer() : T0(Clock::now()) {}

  int32_t begin(const char *Name, uint32_t Job);
  void end(int32_t Id);
  void count(const char *Name, uint32_t Job, double Value) {
    Counts.push_back({Name, Job, Value});
  }
  /// A fresh job id; spans and counts of one job share it.
  uint32_t newJob() { return NextJob++; }

  const std::vector<Span> &spans() const { return Spans; }
  const std::vector<Count> &counts() const { return Counts; }

  /// Per job, the summed duration (ms) of spans named \p Name.
  std::map<uint32_t, double> perJobMs(const std::string &Name) const;
  /// Per job, the summed value of counts named \p Name.
  std::map<uint32_t, double> perJobCount(const std::string &Name) const;

  /// Writes every span and count as JSON lines to \p Path.
  bool write(const std::string &Path) const;

private:
  Clock::time_point T0;
  std::vector<Span> Spans;
  std::vector<Count> Counts;
  std::vector<int32_t> Open;
  uint32_t NextJob = 0;
};

class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name, uint32_t Job)
      : T(T), Id(T.begin(Name, Job)) {}
  ~SpanScope() { T.end(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &T;
  int32_t Id;
};

/// One traced verification of \p J (see the file comment). \p ProbeMs
/// accumulates the time spent in probe calls.
JobRecord tracePipeline(const BenchJob &J, Tracer &T, uint32_t Job,
                        double &ProbeMs);

} // namespace qccbench

#endif // QCCBENCH_TRACE_H
