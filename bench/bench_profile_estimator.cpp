//===- bench/bench_profile_estimator.cpp - Estimated vs interpreted profiles -===//
//
// Measures what the static profile estimator (trace/EstimateProfile) buys
// and costs against the interpreter ground truth, per workload and
// trace-scheduling configuration:
//
//   * cold-start profile latency: estimateProfile vs a profiling
//     interpretation of the same lowered module (the compile-time win);
//   * schedule-hash agreement: does the estimated profile pick the exact
//     same pre-regalloc schedule as the interpreted one;
//   * simulated cycles delta: end-to-end cost of estimator-guided traces;
//   * weighted branch-direction error: fraction of dynamically-executed
//     two-way branches (weighted by interpreted execution count) whose
//     hotter successor the estimator gets wrong.
//
// Emits machine-readable BENCH_profile.json.
//
// Usage:
//   bench_profile_estimator [--quick] [--json PATH]
//                           [--max-cycle-regress PCT] [--min-speedup X]
//
//   --quick              one configuration (BS+LU4+TrS), the CI mode.
//   --json PATH          where to write BENCH_profile.json (default: cwd).
//   --max-cycle-regress  exit 1 if any configuration's overall simulated
//                        cycle regression exceeds PCT percent.
//   --min-speedup        exit 1 if any configuration's overall profile-time
//                        speedup (interp ns / est ns) falls below X.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/Experiment.h"
#include "driver/Workloads.h"
#include "ir/Interp.h"
#include "lang/Parser.h"
#include "locality/Locality.h"
#include "lower/Lower.h"
#include "opt/Cleanup.h"
#include "support/Serialize.h"
#include "support/Str.h"
#include "trace/EstimateProfile.h"
#include "xform/Unroll.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace bsched;
using namespace bsched::bench;
using namespace bsched::driver;

namespace {

/// Rebuilds the module the trace scheduler profiles under \p Opts: the same
/// locality / unroll / lower / cleanup front half the pipeline runs before
/// it consults a profile.
ir::Module profiledModule(const lang::Program &P, const CompileOptions &Opts) {
  lang::Program Copy = P;
  if (Opts.LocalityAnalysis) {
    locality::LocalityOptions LOpts;
    LOpts.UnrollFactor = Opts.UnrollFactor > 1 ? Opts.UnrollFactor : 0;
    locality::applyLocality(Copy, LOpts);
  }
  if (Opts.UnrollFactor > 1)
    xform::unrollLoops(Copy, Opts.UnrollFactor);
  if (Opts.LocalityAnalysis || Opts.UnrollFactor > 1) {
    if (std::string E = lang::checkProgram(Copy); !E.empty()) {
      std::fprintf(stderr, "FATAL: recheck [%s]: %s\n", Opts.tag().c_str(),
                   E.c_str());
      std::exit(1);
    }
  }
  lower::LowerResult LR = lower::lowerProgram(Copy, Opts.Lower);
  if (!LR.ok()) {
    std::fprintf(stderr, "FATAL: lower [%s]: %s\n", Opts.tag().c_str(),
                 LR.Error.c_str());
    std::exit(1);
  }
  if (Opts.CleanupIR)
    opt::cleanupModule(LR.M);
  return std::move(LR.M);
}

/// Hash of the pre-regalloc schedule \p Opts (with the given profile source)
/// produces — the bytes golden_schedule_test pins.
uint64_t scheduleHash(const lang::Program &P, CompileOptions Opts,
                      bool Estimated) {
  Opts.UseEstimatedProfile = Estimated;
  Opts.StopBeforeRegAlloc = true;
  Opts.VerifyPasses = false;
  CompileResult C = compileProgram(P, Opts);
  if (!C.ok()) {
    std::fprintf(stderr, "FATAL: compile [%s]: %s\n", Opts.tag().c_str(),
                 C.Error.c_str());
    std::exit(1);
  }
  return fnv1a(ir::printFunction(C.M.Fn));
}

struct Row {
  std::string Name;
  uint64_t EstNs = 0, InterpNs = 0;
  bool HashAgree = false;
  uint64_t CyclesEst = 0, CyclesInterp = 0;
  double MispredictPct = 0; ///< weighted wrong-hot-successor rate.

  double speedup() const {
    return EstNs ? static_cast<double>(InterpNs) / EstNs : 0.0;
  }
  double cycleDeltaPct() const {
    return CyclesInterp ? 100.0 *
                              (static_cast<double>(CyclesEst) -
                               static_cast<double>(CyclesInterp)) /
                              static_cast<double>(CyclesInterp)
                        : 0.0;
  }
};

struct ConfigResult {
  CompileOptions Opts;
  std::vector<Row> Rows;
  uint64_t EstNs = 0, InterpNs = 0, CyclesEst = 0, CyclesInterp = 0;
  unsigned Agreed = 0;

  double speedup() const {
    return EstNs ? static_cast<double>(InterpNs) / EstNs : 0.0;
  }
  double cycleDeltaPct() const {
    return CyclesInterp ? 100.0 *
                              (static_cast<double>(CyclesEst) -
                               static_cast<double>(CyclesInterp)) /
                              static_cast<double>(CyclesInterp)
                        : 0.0;
  }
};

/// Weighted branch-direction error of \p Est against \p Truth on \p F: over
/// two-successor blocks the interpreter actually reached, the fraction of
/// executions whose estimated-hotter slot differs from the interpreted one.
double mispredictPct(const ir::Function &F, const ir::InterpResult &Est,
                     const ir::InterpResult &Truth) {
  uint64_t Total = 0, Wrong = 0;
  for (const ir::BasicBlock &B : F.Blocks) {
    if (B.successors().size() != 2 || Truth.BlockCounts[B.Id] == 0)
      continue;
    Total += Truth.BlockCounts[B.Id];
    int TruthHot = Truth.EdgeCounts[B.Id][1] > Truth.EdgeCounts[B.Id][0];
    int EstHot = Est.EdgeCounts[B.Id][1] > Est.EdgeCounts[B.Id][0];
    if (TruthHot != EstHot)
      Wrong += Truth.BlockCounts[B.Id];
  }
  return Total ? 100.0 * static_cast<double>(Wrong) /
                     static_cast<double>(Total)
               : 0.0;
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  std::string JsonPath = "BENCH_profile.json";
  double MaxCycleRegress = -1.0;
  double MinSpeedup = -1.0;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--quick"))
      Quick = true;
    else if (!std::strcmp(argv[I], "--json") && I + 1 != argc)
      JsonPath = argv[++I];
    else if (!std::strcmp(argv[I], "--max-cycle-regress") && I + 1 != argc)
      MaxCycleRegress = std::atof(argv[++I]);
    else if (!std::strcmp(argv[I], "--min-speedup") && I + 1 != argc)
      MinSpeedup = std::atof(argv[++I]);
    else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[I]);
      return 2;
    }
  }

  std::vector<CompileOptions> Configs;
  {
    CompileOptions Base;
    Base.TraceScheduling = true;
    Base.VerifyPasses = false; // timing/measuring; tests verify.
    CompileOptions C = Base;
    C.Scheduler = sched::SchedulerKind::Balanced;
    C.UnrollFactor = 4;
    Configs.push_back(C);
    if (!Quick) {
      C.UnrollFactor = 8;
      Configs.push_back(C);
      C.Scheduler = sched::SchedulerKind::Traditional;
      C.UnrollFactor = 4;
      Configs.push_back(C);
    }
  }

  std::printf("profile estimator vs interpreter (%s mode, %zu configs)\n",
              Quick ? "quick" : "full", Configs.size());

  std::vector<ConfigResult> Results;
  for (const CompileOptions &Opts : Configs) {
    ConfigResult CR;
    CR.Opts = Opts;
    for (const Workload &W : workloads()) {
      lang::Program P = parseWorkload(W);
      ir::Module M = profiledModule(P, Opts);

      Row R;
      R.Name = W.Name;
      ir::InterpResult Est, Truth;
      R.EstNs = bestOf(9, [&] { Est = trace::estimateProfile(M.Fn); });
      R.InterpNs = bestOf(3, [&] { Truth = ir::interpret(M); });
      R.MispredictPct = mispredictPct(M.Fn, Est, Truth);
      R.HashAgree = scheduleHash(P, Opts, /*Estimated=*/false) ==
                    scheduleHash(P, Opts, /*Estimated=*/true);

      CompileOptions RunInterp = Opts;
      CompileOptions RunEst = Opts;
      RunEst.UseEstimatedProfile = true;
      RunResult RI = runWorkload(W, RunInterp);
      RunResult RE = runWorkload(W, RunEst);
      if (!RI.ok() || !RE.ok()) {
        std::fprintf(stderr, "FATAL: run %s [%s]: %s\n", W.Name,
                     Opts.tag().c_str(),
                     (!RI.ok() ? RI.Error : RE.Error).c_str());
        return 1;
      }
      R.CyclesInterp = RI.Sim.Cycles;
      R.CyclesEst = RE.Sim.Cycles;

      CR.EstNs += R.EstNs;
      CR.InterpNs += R.InterpNs;
      CR.CyclesEst += R.CyclesEst;
      CR.CyclesInterp += R.CyclesInterp;
      CR.Agreed += R.HashAgree;
      CR.Rows.push_back(std::move(R));
    }
    std::printf("  %-14s profile %8.1f us -> %6.1f us (%.0fx)  "
                "hash agree %u/%zu  cycles %+.2f%%\n",
                Opts.tag().c_str(), CR.InterpNs / 1e3, CR.EstNs / 1e3,
                CR.speedup(), CR.Agreed, CR.Rows.size(), CR.cycleDeltaPct());
    Results.push_back(std::move(CR));
  }

  // --- JSON -----------------------------------------------------------------
  {
    std::ostringstream J;
    J << "{\n  \"schema\": \"bsched-profile-estimator-v1\",\n";
    J << "  \"quick\": " << (Quick ? "true" : "false") << ",\n";
    J << "  \"entry_units\": " << trace::EstimateEntryCount << ",\n";
    J << "  \"configs\": [\n";
    for (size_t CI = 0; CI != Results.size(); ++CI) {
      const ConfigResult &CR = Results[CI];
      J << "    {\"config\": \"" << CR.Opts.tag() << "\",\n"
        << "     \"workloads\": [\n";
      for (size_t WI = 0; WI != CR.Rows.size(); ++WI) {
        const Row &R = CR.Rows[WI];
        J << "      {\"name\": \"" << R.Name << "\", \"est_ns\": " << R.EstNs
          << ", \"interp_ns\": " << R.InterpNs
          << ", \"speedup\": " << fmtDouble(R.speedup(), 1)
          << ", \"sched_hash_agree\": " << (R.HashAgree ? "true" : "false")
          << ", \"cycles_est\": " << R.CyclesEst
          << ", \"cycles_interp\": " << R.CyclesInterp
          << ", \"cycle_delta_pct\": " << fmtDouble(R.cycleDeltaPct(), 2)
          << ", \"mispredict_pct\": " << fmtDouble(R.MispredictPct, 2) << "}"
          << (WI + 1 == CR.Rows.size() ? "\n" : ",\n");
      }
      J << "     ],\n     \"summary\": {\"est_ns\": " << CR.EstNs
        << ", \"interp_ns\": " << CR.InterpNs
        << ", \"speedup\": " << fmtDouble(CR.speedup(), 1)
        << ", \"agree\": " << CR.Agreed << ", \"of\": " << CR.Rows.size()
        << ", \"cycle_delta_pct\": " << fmtDouble(CR.cycleDeltaPct(), 2)
        << "}}" << (CI + 1 == Results.size() ? "\n" : ",\n");
    }
    J << "  ]\n}\n";
    std::ofstream Out(JsonPath);
    if (!Out) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    Out << J.str();
    std::printf("wrote %s\n", JsonPath.c_str());
  }

  int Exit = 0;
  for (const ConfigResult &CR : Results) {
    if (MaxCycleRegress >= 0.0 && CR.cycleDeltaPct() > MaxCycleRegress) {
      std::fprintf(stderr,
                   "FAIL: [%s] cycle regression %.2f%% over the %.2f%% cap\n",
                   CR.Opts.tag().c_str(), CR.cycleDeltaPct(), MaxCycleRegress);
      Exit = 1;
    }
    if (MinSpeedup >= 0.0 && CR.speedup() < MinSpeedup) {
      std::fprintf(stderr,
                   "FAIL: [%s] profile speedup %.1fx under the %.1fx floor\n",
                   CR.Opts.tag().c_str(), CR.speedup(), MinSpeedup);
      Exit = 1;
    }
  }
  return Exit;
}
