//===- tests/DifferentialTest.cpp - Randomized differential testing -------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Csmith-style differential testing (cf. the paper's reference to Yang
/// et al., PLDI 2011): a deterministic generator produces random programs
/// in the verified subset; each is executed at every pipeline level and
/// on the finite-stack machine. Checked per program:
///
///   * exit codes agree across all six semantics (or all levels fail),
///   * quantitative refinement holds between adjacent levels, backed by
///     the randomized-metric falsifier,
///   * the automatic analyzer bounds every function, and the instantiated
///     main bound covers both the Mach trace weight and the machine's
///     measured consumption,
///   * Theorem 1: the program runs at stack size bound - 4.
///
/// Programs are built to terminate (loops are bounded by construction)
/// and mostly to avoid traps (indices are masked; divisors get `| 1`),
/// with a controlled fraction of potentially trapping divisions to
/// exercise the fail-fail agreement path.
///
//===----------------------------------------------------------------------===//

#include "batch/ThreadPool.h"
#include "cminor/CminorInterp.h"
#include "rtl/Inline.h"
#include "cminor/Lower.h"
#include "driver/Compiler.h"
#include "events/Refinement.h"
#include "frontend/Frontend.h"
#include "fuzz/Generator.h"
#include "interp/Interp.h"
#include "rtl/Opt.h"
#include "x86/Machine.h"

#include <gtest/gtest.h>

using namespace qcc;

namespace {

// The generator lives in src/fuzz (shared with the --fuzz harness);
// same splitmix64 draws, so historical seeds reproduce identically.
using fuzz::ProgramGenerator;

/// Runs one generated program through every level; returns a failure
/// explanation or the empty string.
std::string checkOneProgram(uint64_t Seed) {
  std::string Source = ProgramGenerator(Seed).generate();
  auto Explain = [&Source](const std::string &What) {
    return What + "\n--- program ---\n" + Source;
  };

  DiagnosticEngine D;
  auto CL = frontend::parseProgram(Source, D);
  if (!CL)
    return Explain("generated program does not parse: " + D.str());

  constexpr uint64_t Fuel = 3'000'000;
  Behavior BClight = interp::runProgram(*CL, Fuel);
  if (BClight.Kind == BehaviorKind::Diverges)
    return Explain("generated program exhausted fuel (generator bug)");

  cminor::Program CM = cminor::lowerFromClight(*CL);
  Behavior BCminor = cminor::runProgram(CM, Fuel);
  rtl::Program RT = rtl::lowerFromCminor(CM);
  Behavior BRtl = rtl::runProgram(RT, Fuel);
  rtl::Program RTO = rtl::lowerFromCminor(CM);
  rtl::optimizeProgram(RTO);
  Behavior BRtlOpt = rtl::runProgram(RTO, Fuel);
  mach::Program MP = mach::lowerFromRtl(RTO);
  Behavior BMach = mach::runProgram(MP, Fuel * 8);

  struct Level {
    const char *Name;
    const Behavior *B;
  };
  const Level Levels[] = {{"clight", &BClight},
                          {"cminor", &BCminor},
                          {"rtl", &BRtl},
                          {"rtl-opt", &BRtlOpt},
                          {"mach", &BMach}};
  for (size_t I = 1; I != 5; ++I) {
    RefinementResult QR =
        checkQuantitativeRefinement(*Levels[I].B, *Levels[I - 1].B);
    if (!QR.Ok)
      return Explain(std::string("refinement ") + Levels[I - 1].Name +
                     " -> " + Levels[I].Name + ": " + QR.Reason);
    RefinementResult FW =
        falsifyWeightDominance(*Levels[I].B, *Levels[I - 1].B, 16);
    if (!FW.Ok)
      return Explain(std::string("metric falsifier ") + Levels[I].Name +
                     ": " + FW.Reason);
  }

  x86::Program AP = x86::emitFromMach(MP);
  x86::Machine M(AP, measure::MeasureStackSize);
  Behavior BAsm = M.run(Fuel * 8);
  if (BClight.converged()) {
    if (!BAsm.converged())
      return Explain("clight converged but asm " + BAsm.str());
    if (BAsm.ReturnCode != BClight.ReturnCode)
      return Explain("exit codes differ: clight " +
                     std::to_string(BClight.ReturnCode) + " vs asm " +
                     std::to_string(BAsm.ReturnCode));
    if (pruneMemoryEvents(BAsm.Events) !=
        pruneMemoryEvents(BClight.Events))
      return Explain("I/O traces differ between clight and asm");
  } else if (BAsm.converged()) {
    // A failing source discharges Theorem 1 entirely: the machine has no
    // bounds checks, so an out-of-bounds source program may silently read
    // or write some other global and run on. Division traps, however,
    // exist at every level and must be preserved.
    if (BClight.FailureReason.find("out of bounds") == std::string::npos)
      return Explain("clight failed (" + BClight.FailureReason +
                     ") but asm converged");
  }

  // The optimizing pipelines (inlining; tail calls are no-ops here but
  // exercise the recognizer) must agree on converging runs.
  if (BClight.converged()) {
    rtl::Program RInl = rtl::lowerFromCminor(CM);
    rtl::inlineFunctions(RInl);
    rtl::optimizeProgram(RInl);
    mach::LowerOptions TailOpts;
    TailOpts.TailCalls = true;
    mach::Program MInl = mach::lowerFromRtl(RInl, TailOpts);
    x86::Program AInl = x86::emitFromMach(MInl);
    x86::Machine MachineInl(AInl, measure::MeasureStackSize);
    Behavior BInl = MachineInl.run(Fuel * 8);
    if (!BInl.converged())
      return Explain("inlined+tailcall pipeline failed: " + BInl.str());
    if (BInl.ReturnCode != BClight.ReturnCode)
      return Explain("inlined+tailcall exit code " +
                     std::to_string(BInl.ReturnCode) + " vs clight " +
                     std::to_string(BClight.ReturnCode));
    if (pruneMemoryEvents(BInl.Events) != pruneMemoryEvents(BClight.Events))
      return Explain("inlined+tailcall I/O trace differs");
  }

  // Generated programs have no recursion: the analyzer must bound
  // everything, and the bound must cover both the Mach weight and the
  // machine measurement.
  DiagnosticEngine AD;
  auto Bounds = analysis::analyzeProgram(*CL, AD);
  if (!Bounds.SkippedRecursive.empty())
    return Explain("analyzer skipped functions in a recursion-free "
                   "program");
  logic::BoundExpr MainBound = Bounds.callBound("main");
  if (!MainBound)
    return Explain("no main bound: " + AD.str());
  StackMetric Metric = MP.costMetric();
  ExtNat BoundVal = logic::evalBound(MainBound, Metric, {});
  if (BoundVal.isInfinite())
    return Explain("main bound is infinite");
  if (BClight.converged()) {
    uint64_t MachWeight = weight(Metric, BMach.Events);
    if (BoundVal.finiteValue() < MachWeight)
      return Explain("bound " + BoundVal.str() + " < mach weight " +
                     std::to_string(MachWeight));
    uint32_t Measured = M.measuredStackBytes();
    if (BoundVal.finiteValue() < Measured)
      return Explain("bound " + BoundVal.str() + " < measured " +
                     std::to_string(Measured));
    // Theorem 1 at the bound.
    x86::Machine Clamped(
        AP, static_cast<uint32_t>(BoundVal.finiteValue()) - 4);
    Behavior BClamped = Clamped.run(Fuel * 8);
    if (!BClamped.converged())
      return Explain("program failed at its verified stack bound: " +
                     BClamped.str());
  }
  return "";
}

class Differential : public testing::TestWithParam<uint64_t> {};

TEST_P(Differential, AllLevelsAgree) {
  // 16 seeds per gtest case, 12 cases = 192 random programs, fanned out
  // across cores on the batch engine's thread pool (each seed is
  // an independent pipeline; see support/Diagnostics.h for the contract).
  constexpr uint64_t Seeds = 16;
  std::vector<std::string> Failures(Seeds);
  batch::ThreadPool Pool(
      std::max(1u, std::thread::hardware_concurrency()));
  const uint64_t Base = GetParam() * 1000;
  Pool.parallelFor(Seeds, [&Failures, Base](size_t Sub) {
    Failures[Sub] = checkOneProgram(Base + Sub);
  });
  for (uint64_t Sub = 0; Sub != Seeds; ++Sub)
    ASSERT_TRUE(Failures[Sub].empty())
        << "seed " << Base + Sub << ": " << Failures[Sub];
}

INSTANTIATE_TEST_SUITE_P(Fuzz, Differential,
                         testing::Range<uint64_t>(1, 13));

} // namespace
