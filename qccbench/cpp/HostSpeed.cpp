//===- qccbench/cpp/HostSpeed.cpp - The host-speed probe ------------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed amount of work that shares no code with qcc: inserts, finds
/// and erases on a std::map of short strings. Like qcc, it allocates
/// small nodes and follows pointers, so a host core that runs it slowly
/// runs qcc slowly too. Timing it right before a pass or a request
/// measures how fast the host runs at that moment (see README.md).
///
/// The map stays small (2000 keys, about 150 KB), inside the core's own
/// caches. So the probe sees what slows a core (a busy sibling thread, a
/// lower clock) but not what slows only main memory: a 40000-key map
/// also felt that, and in trials ran at half speed while qcc did not.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <map>

using namespace qccbench;

namespace {
/// Keeps the probe's result live so the work is not optimised away.
volatile uint64_t Sink;
} // namespace

double qccbench::hostProbeMs() {
  auto Start = Clock::now();
  Rng R(7);
  std::map<uint64_t, std::string> M;
  uint64_t Sum = 0;
  for (unsigned I = 0; I != 100000; ++I) {
    M[R.below(2000)] = std::to_string(I);
    auto It = M.find(R.below(2000));
    if (It != M.end())
      Sum += It->second.size();
    if (I % 3 == 0)
      M.erase(R.below(2000));
  }
  Sink = Sum;
  return msSince(Start);
}
