//===- qccbench/cpp/Records.cpp - Job records and sample statistics -------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/Compiler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

using namespace qcc;
using namespace qccbench;

JobRecord qccbench::recordOf(const BenchJob &J,
                             const batch::ProgramResult &R) {
  JobRecord Rec;
  Rec.Kind = J.Kind;
  Rec.Name = J.Name;
  Rec.ProgramText = J.ProgramText;
  Rec.HaveVerdict = true;
  Rec.Ok = R.Ok;
  Rec.Status = batch::jobStatusName(R.Status);
  for (const batch::FunctionReport &F : R.Bounds)
    Rec.Bounds.emplace_back(F.Function, F.ConcreteBytes);
  Rec.T1Checked = R.Theorem1Checked;
  Rec.T1Ok = R.Theorem1Ok;
  Rec.T1Bytes = R.Theorem1StackBytes;
  return Rec;
}

JobRecord qccbench::failedRecord(const BenchJob &J, std::string Failure) {
  JobRecord Rec;
  Rec.Kind = J.Kind;
  Rec.Name = J.Name;
  Rec.ProgramText = J.ProgramText;
  Rec.Failure = std::move(Failure);
  return Rec;
}

void qccbench::measureWatermarks(std::vector<JobRecord> &Records,
                                 unsigned Threads) {
  // One measurement per distinct program; the options that change code
  // generation are the corpus defaults for every job the benchmark makes.
  std::map<std::string, std::optional<uint32_t>> ByProgram;
  for (const JobRecord &R : Records)
    if (R.HaveVerdict)
      ByProgram[R.ProgramText];
  std::vector<std::pair<const std::string, std::optional<uint32_t>> *> Work;
  for (auto &E : ByProgram)
    Work.push_back(&E);
  std::atomic<size_t> Next{0};
  auto Measure = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Work.size();) {
      DiagnosticEngine Diags;
      auto C = driver::lowerPipeline(Work[I]->first, Diags, {});
      if (!C)
        continue;
      measure::Measurement M = driver::measureStack(*C);
      if (M.Ok)
        Work[I]->second = M.StackBytes;
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < std::max(1u, Threads); ++T)
    Pool.emplace_back(Measure);
  Measure();
  for (std::thread &T : Pool)
    T.join();
  for (JobRecord &R : Records)
    if (R.HaveVerdict)
      R.Watermark = ByProgram[R.ProgramText];
}

std::string qccbench::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string qccbench::boundsJson(const BoundList &B) {
  std::string Out = "{";
  for (size_t I = 0; I != B.size(); ++I) {
    Out += (I ? "," : "") + jsonString(B[I].first) + ":";
    Out += B[I].second ? std::to_string(*B[I].second) : "null";
  }
  return Out + "}";
}

double qccbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return NAN;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

std::optional<unsigned> qccbench::tailPercentile(size_t Samples) {
  if (Samples < 11)
    return std::nullopt;
  // Highest whole p with Samples * (1 - p/100) >= 10.
  unsigned P = static_cast<unsigned>(
      std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(Samples))));
  return std::min(P, 99u);
}

std::optional<double> qccbench::peakRssMb(const std::string &Pid) {
  FILE *F = std::fopen(("/proc/" + Pid + "/status").c_str(), "r");
  if (!F)
    return std::nullopt;
  char Line[256];
  long Kb = -1;
  while (std::fgets(Line, sizeof Line, F))
    if (std::sscanf(Line, "VmHWM: %ld kB", &Kb) == 1)
      break;
  std::fclose(F);
  if (Kb <= 0)
    return std::nullopt;
  return static_cast<double>(Kb) / 1024.0;
}
