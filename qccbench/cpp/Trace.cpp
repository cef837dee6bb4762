//===- qccbench/cpp/Trace.cpp - Spans around calls into each layer --------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "analysis/Analyzer.h"
#include "cminor/CminorInterp.h"
#include "cminor/Lower.h"
#include "cminor/Verify.h"
#include "driver/Compiler.h"
#include "events/Refinement.h"
#include "events/TraceSink.h"
#include "frontend/Frontend.h"
#include "interp/Interp.h"
#include "logic/Checker.h"
#include "mach/Mach.h"
#include "mach/Verify.h"
#include "rtl/Opt.h"
#include "rtl/Rtl.h"
#include "rtl/Verify.h"
#include "x86/Asm.h"
#include "x86/Machine.h"
#include "x86/Verify.h"

#include <cstdio>

using namespace qcc;
using namespace qccbench;

int32_t Tracer::begin(const char *Name, uint32_t Job) {
  double Now =
      std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
  Spans.push_back({Name, Job, Open.empty() ? -1 : Open.back(), Now, Now});
  Open.push_back(static_cast<int32_t>(Spans.size() - 1));
  return Open.back();
}

void Tracer::end(int32_t Id) {
  Spans[Id].EndUs =
      std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

std::map<uint32_t, double> Tracer::perJobMs(const std::string &Name) const {
  std::map<uint32_t, double> Out;
  for (const Span &S : Spans)
    if (Name == S.Name)
      Out[S.Job] += (S.EndUs - S.StartUs) / 1000.0;
  return Out;
}

std::map<uint32_t, double>
Tracer::perJobCount(const std::string &Name) const {
  std::map<uint32_t, double> Out;
  for (const Count &C : Counts)
    if (Name == C.Name)
      Out[C.Job] += C.Value;
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"span\":%zu,\"name\":\"%s\",\"job\":%u,\"parent\":%d,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 I, S.Name, S.Job, S.Parent, S.StartUs, S.EndUs);
  }
  for (const Count &C : Counts)
    std::fprintf(F, "{\"count\":\"%s\",\"job\":%u,\"value\":%.17g}\n",
                 C.Name, C.Job, C.Value);
  return std::fclose(F) == 0;
}

namespace {

uint64_t rtlNodes(const rtl::Program &P) {
  uint64_t N = 0;
  for (const rtl::Function &F : P.Functions)
    N += F.Nodes.size();
  return N;
}

/// Times \p Fn as a probe: inside a span, with its duration added to
/// \p ProbeMs.
template <typename Fn>
void probe(Tracer &T, const char *Name, uint32_t Job, double &ProbeMs,
           Fn &&F) {
  auto Start = Clock::now();
  {
    SpanScope S(T, Name, Job);
    F();
  }
  ProbeMs += msSince(Start);
}

} // namespace

JobRecord qccbench::tracePipeline(const BenchJob &J, Tracer &T, uint32_t Job,
                                  double &ProbeMs) {
  const driver::CompilerOptions &O = J.Job.Options;
  batch::ProgramResult R;
  R.Id = J.Job.Id;
  DiagnosticEngine Diags;
  SpanScope Root(T, "job", Job);

  auto Finish = [&]() {
    R.Status = R.Ok ? batch::JobStatus::Ok : batch::JobStatus::Failed;
    R.Diagnostics = Diags.str();
    return recordOf(J, R);
  };

  std::optional<clight::Program> CL;
  {
    SpanScope S(T, "frontend.parse", Job);
    CL = frontend::parseProgram(J.Job.Source, Diags, O.Defines);
  }
  if (!CL)
    return Finish();
  driver::Compilation C;
  C.Clight = std::move(*CL);
  bool Ok = true;
  {
    SpanScope S(T, "cminor.lower", Job);
    C.Cminor = cminor::lowerFromClight(C.Clight);
  }
  {
    SpanScope S(T, "cminor.verify", Job);
    Ok = Ok && cminor::verifyProgram(C.Cminor, Diags);
  }
  {
    SpanScope S(T, "rtl.lower", Job);
    C.Rtl = rtl::lowerFromCminor(C.Cminor);
  }
  T.count("rtl.nodes", Job, static_cast<double>(rtlNodes(C.Rtl)));
  // optimizeProgram's own schedule, on a copy, to split its time between
  // the two dataflow passes (cleanup is neither and stays untimed).
  {
    rtl::Program Copy = C.Rtl;
    auto Start = Clock::now();
    for (rtl::Function &F : Copy.Functions)
      for (int Round = 0; Round != 2; ++Round) {
        {
          SpanScope S(T, "rtl.constprop", Job);
          rtl::constantPropagation(F);
        }
        {
          SpanScope S(T, "rtl.dce", Job);
          rtl::deadCodeElimination(F);
        }
        rtl::cleanupControlFlow(F);
      }
    ProbeMs += msSince(Start);
  }
  {
    SpanScope S(T, "rtl.opt", Job);
    rtl::optimizeProgram(C.Rtl);
  }
  T.count("rtl.nodes_after_opt", Job, static_cast<double>(rtlNodes(C.Rtl)));
  {
    SpanScope S(T, "rtl.verify", Job);
    Ok = Ok && rtl::verifyProgram(C.Rtl, Diags);
  }
  {
    SpanScope S(T, "mach.lower", Job);
    mach::LowerOptions MO;
    MO.TailCalls = O.TailCalls;
    C.Mach = mach::lowerFromRtl(C.Rtl, MO);
  }
  {
    SpanScope S(T, "mach.verify", Job);
    Ok = Ok && mach::verifyProgram(C.Mach, Diags);
  }
  {
    SpanScope S(T, "x86.emit", Job);
    C.Asm = x86::emitFromMach(C.Mach);
  }
  {
    SpanScope S(T, "x86.verify", Job);
    Ok = Ok && x86::verifyProgram(C.Asm, Diags);
  }
  if (!Ok)
    return Finish();
  C.Metric = C.Mach.costMetric();

  if (O.ValidateTranslation) {
    const uint64_t Fuel = O.ValidationFuel;
    RefinementSummary S[5];
    auto Replay = [&](int Level, const char *Span, const char *Events,
                      auto &&Run) {
      SpanScope Sc(T, Span, Job);
      RefinementAccumulator A;
      S[Level] = A.finish(Run(A));
      T.count(Events, Job, static_cast<double>(S[Level].EventCount));
    };
    Replay(0, "interp.replay", "interp.replay_events",
           [&](TraceSink &A) { return interp::runProgram(C.Clight, A, Fuel); });
    Replay(1, "cminor.replay", "cminor.replay_events",
           [&](TraceSink &A) { return cminor::runProgram(C.Cminor, A, Fuel); });
    Replay(2, "rtl.replay", "rtl.replay_events",
           [&](TraceSink &A) { return rtl::runProgram(C.Rtl, A, Fuel); });
    Replay(3, "mach.replay", "mach.replay_events", [&](TraceSink &A) {
      return mach::runProgram(C.Mach, A, Fuel * 4);
    });
    Replay(4, "x86.replay", "x86.replay_events", [&](TraceSink &A) {
      x86::Machine M(C.Asm, measure::MeasureStackSize);
      return M.run(A, Fuel * 4);
    });
    {
      SpanScope Sc(T, "events.refine", Job);
      for (int L = 0; L != 4; ++L)
        if (!checkQuantitativeRefinement(S[L + 1], S[L]).Ok) {
          Ok = false;
          Diags.error(SourceLoc(), "translation validation failed");
        }
    }
    probe(T, "driver.validate", Job, ProbeMs, [&] {
      DiagnosticEngine D;
      if (!driver::validateTranslation(C, D, O))
        Ok = false;
    });
    if (!Ok)
      return Finish();
  }

  {
    SpanScope S(T, "analysis.analyze", Job);
    C.Bounds = analysis::analyzeProgram(C.Clight, Diags, O.SeededSpecs);
  }
  if (Diags.hasErrors())
    return Finish();
  T.count("logic.proof_nodes", Job,
          static_cast<double>(C.Bounds.proofNodeCount()));
  probe(T, "logic.check", Job, ProbeMs, [&] {
    for (const auto &[Name, FB] : C.Bounds.Bounds) {
      logic::ProofChecker PC(C.Clight, &C.Bounds.Gamma);
      if (!PC.checkFunctionBound(FB, Diags))
        Ok = false;
    }
  });

  R.Ok = Ok;
  for (const auto &[F, Spec] : C.Bounds.Gamma) {
    batch::FunctionReport FR;
    FR.Function = F;
    FR.ConcreteBytes = driver::concreteCallBound(C, F);
    R.Bounds.push_back(std::move(FR));
  }
  if (auto MainBound = driver::concreteCallBound(C, "main");
      MainBound && *MainBound >= 4) {
    R.Theorem1Checked = true;
    R.Theorem1StackBytes = static_cast<uint32_t>(*MainBound - 4);
    measure::Measurement M;
    {
      SpanScope S(T, "measure.theorem1", Job);
      M = driver::runWithStackSize(C, R.Theorem1StackBytes,
                                   O.ValidationFuel * 10);
    }
    R.Theorem1Ok = M.Ok;
    R.Ok = R.Ok && M.Ok;
  }
  JobRecord Rec = Finish();
  probe(T, "measure.watermark", Job, ProbeMs, [&] {
    measure::Measurement M = driver::measureStack(C);
    if (M.Ok)
      Rec.Watermark = M.StackBytes;
  });
  return Rec;
}
