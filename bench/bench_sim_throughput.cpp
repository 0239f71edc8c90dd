//===- bench/bench_sim_throughput.cpp - Simulator-throughput tracker --------===//
//
// Times the hot simulation path: every workload compiled once at the
// heaviest evaluation configuration (BS+LU8+TrS), then simulated under the
// machine models the experiments use, against both the predecoded fast core
// and the preserved reference core (sim::SimImpl::Reference). The per-phase
// breakdown is differential — each model switches one more subsystem on:
//
//   decode    cost of predecoding alone        (MaxCycles = 0)
//   pipeline  issue/scoreboard + execution     (simple model - decode)
//   dcache    memory hierarchy + TLB + MSHRs   (PerfectFrontEnd - simple)
//   fetch     I-stream: L1I/ITLB/predictor     (full 21164 - PerfectFrontEnd)
//
// Emits machine-readable BENCH_sim.json so the simulated-instructions-per-
// second trajectory is tracked across PRs, and optionally gates against a
// checked-in baseline (exit 1 on a >25% regression).
//
// Usage:
//   bench_sim_throughput [--quick] [--json PATH] [--baseline PATH]
//                        [--max-threads N]
//
//   --quick       1 repetition per measurement (the CI mode).
//   --json PATH   where to write BENCH_sim.json (default: cwd).
//   --baseline    baseline JSON with "min_instrs_per_sec" per model tag;
//                 exit 1 if any measured throughput falls below 75% of it.
//   --max-threads cap for the thread-scaling sweep (default 8).
//
//===----------------------------------------------------------------------===//

#include "BaselineGate.h"
#include "BenchCommon.h"

#include "driver/Compiler.h"
#include "driver/Workloads.h"
#include "lang/Parser.h"
#include "sim/Machine.h"
#include "support/Str.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace bsched;
using namespace bsched::bench;
using namespace bsched::driver;

namespace {

/// The machine models, ordered so each one enables one more subsystem than
/// the previous: the differential times are the per-phase breakdown.
struct ModelSpec {
  const char *Tag;
  sim::MachineConfig C;
  uint64_t MaxCycles;
};

std::vector<ModelSpec> models() {
  std::vector<ModelSpec> Ms;
  // Predecode only: a zero budget exits before the first simulated cycle.
  Ms.push_back({"decode", {}, 0});
  sim::MachineConfig Simple;
  Simple.SimpleModel = true;
  Simple.SimpleHitRate = 0.8;
  Ms.push_back({"simple80", Simple, 50000000000ull});
  sim::MachineConfig Pfe;
  Pfe.PerfectFrontEnd = true;
  Ms.push_back({"pfe", Pfe, 50000000000ull});
  Ms.push_back({"21164", {}, 50000000000ull});
  return Ms;
}

struct WorkloadRow {
  std::string Name;
  uint64_t Instrs = 0; ///< retired dynamic instructions on the full model.
  uint64_t Ns[4] = {0, 0, 0, 0}; ///< fast-core time under each model.
  uint64_t RefNs = 0;            ///< reference core, full model.
};

struct ScalePoint {
  unsigned Threads;
  uint64_t WallNs;
};

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  std::string JsonPath = "BENCH_sim.json";
  std::string BaselinePath;
  unsigned MaxThreads = 8;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--quick"))
      Quick = true;
    else if (!std::strcmp(argv[I], "--json") && I + 1 != argc)
      JsonPath = argv[++I];
    else if (!std::strcmp(argv[I], "--baseline") && I + 1 != argc)
      BaselinePath = argv[++I];
    else if (!std::strcmp(argv[I], "--max-threads") && I + 1 != argc)
      MaxThreads = static_cast<unsigned>(std::atoi(argv[++I]));
    else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[I]);
      return 2;
    }
  }

  const int Reps = Quick ? 1 : 3;
  const std::vector<ModelSpec> Models = models();

  std::printf("simulator-throughput benchmark (%s mode, best of %d; "
              "workloads compiled at BS+LU8+TrS)\n",
              Quick ? "quick" : "full", Reps);

  // Compile every workload once at the headline configuration.
  CompileOptions Opts;
  Opts.Scheduler = sched::SchedulerKind::Balanced;
  Opts.UnrollFactor = 8;
  Opts.TraceScheduling = true;
  Opts.VerifyPasses = false; // timing the simulator; tests verify.
  std::vector<ir::Module> Modules;
  std::vector<WorkloadRow> Rows;
  for (const Workload &W : workloads()) {
    lang::Program P = parseWorkload(W);
    CompileResult C = compileProgram(P, Opts);
    if (!C.ok()) {
      std::fprintf(stderr, "FATAL: %s: %s\n", W.Name, C.Error.c_str());
      return 1;
    }
    Modules.push_back(std::move(C.M));
    WorkloadRow R;
    R.Name = W.Name;
    Rows.push_back(std::move(R));
  }

  // Measure: fast core under every model, reference core under the full
  // model, and a field-level equivalence cross-check of the two cores.
  for (size_t WI = 0; WI != Modules.size(); ++WI) {
    const ir::Module &M = Modules[WI];
    WorkloadRow &R = Rows[WI];
    for (size_t MI = 0; MI != Models.size(); ++MI) {
      sim::MachineConfig C = Models[MI].C;
      C.Impl = sim::SimImpl::Fast;
      sim::SimResult First = sim::simulate(M, C, Models[MI].MaxCycles);
      if (!First.ok() ||
          (!First.Finished && Models[MI].MaxCycles != 0)) {
        std::fprintf(stderr, "FATAL: %s [%s]: %s\n", R.Name.c_str(),
                     Models[MI].Tag,
                     First.ok() ? "did not finish" : First.Error.c_str());
        return 1;
      }
      if (!std::strcmp(Models[MI].Tag, "21164")) {
        R.Instrs = First.Counts.total();
        // The twin contract, re-checked where the numbers are produced: the
        // reference core must agree on the statistics this bench reports.
        sim::MachineConfig RC = Models[MI].C;
        RC.Impl = sim::SimImpl::Reference;
        uint64_t T0 = nowNs();
        sim::SimResult Ref = sim::simulate(M, RC, Models[MI].MaxCycles);
        R.RefNs = nowNs() - T0;
        if (Ref.Checksum != First.Checksum || Ref.Cycles != First.Cycles ||
            Ref.Counts.total() != First.Counts.total() ||
            Ref.LoadInterlockCycles != First.LoadInterlockCycles) {
          std::fprintf(stderr,
                       "FATAL: %s: fast and reference cores disagree\n",
                       R.Name.c_str());
          return 1;
        }
      }
      R.Ns[MI] = bestOf(Reps, [&] {
        sim::SimResult S = sim::simulate(M, C, Models[MI].MaxCycles);
        (void)S;
      });
    }
  }

  // --- Aggregates -----------------------------------------------------------
  uint64_t TotalInstrs = 0, TotalRefNs = 0;
  uint64_t TotalNs[4] = {0, 0, 0, 0};
  for (const WorkloadRow &R : Rows) {
    TotalInstrs += R.Instrs;
    TotalRefNs += R.RefNs;
    for (size_t MI = 0; MI != 4; ++MI)
      TotalNs[MI] += R.Ns[MI];
  }
  auto Ips = [&](uint64_t Ns) {
    return Ns == 0 ? 0.0
                   : static_cast<double>(TotalInstrs) * 1e9 /
                         static_cast<double>(Ns);
  };
  for (size_t MI = 0; MI != Models.size(); ++MI)
    std::printf("  %-9s %10.2f Minstr/s\n", Models[MI].Tag,
                Ips(TotalNs[MI]) / 1e6);
  double Speedup = TotalNs[3] == 0 ? 0.0
                                   : static_cast<double>(TotalRefNs) /
                                         static_cast<double>(TotalNs[3]);
  // Differential phase shares of the full-model time (clamped: the models
  // are separate runs, so tiny negative differences are measurement noise).
  auto Diff = [](uint64_t A, uint64_t B) { return A > B ? A - B : 0; };
  uint64_t DecodeNs = TotalNs[0];
  uint64_t PipelineNs = Diff(TotalNs[1], TotalNs[0]);
  uint64_t DcacheNs = Diff(TotalNs[2], TotalNs[1]);
  uint64_t FetchNs = Diff(TotalNs[3], TotalNs[2]);
  std::printf("  phases: decode %.1f ms, pipeline %.1f ms, dcache %.1f ms, "
              "fetch %.1f ms\n",
              static_cast<double>(DecodeNs) / 1e6,
              static_cast<double>(PipelineNs) / 1e6,
              static_cast<double>(DcacheNs) / 1e6,
              static_cast<double>(FetchNs) / 1e6);
  std::printf("summary: 21164 %.2f Minstr/s, fast-vs-reference %.2fx\n",
              Ips(TotalNs[3]) / 1e6, Speedup);

  // --- Thread-scaling sweep -------------------------------------------------
  // Wall time to simulate every workload on the full model on a pool of T
  // workers; each simulation is deterministic, so only the wall time varies.
  std::vector<ScalePoint> Scaling;
  for (unsigned T = 1; T <= MaxThreads; T *= 2) {
    uint64_t T0 = nowNs();
    ThreadPool::parallelFor(T, Modules.size(), [&](size_t I) {
      sim::SimResult S = sim::simulate(Modules[I], {});
      (void)S;
    });
    Scaling.push_back({T, nowNs() - T0});
    std::printf("  threads=%u  wall %.1f ms (%zu simulations)\n", T,
                static_cast<double>(Scaling.back().WallNs) / 1e6,
                Modules.size());
  }

  // --- JSON -----------------------------------------------------------------
  {
    std::ostringstream J;
    J << "{\n  \"schema\": \"bsched-sim-throughput-v1\",\n";
    J << "  \"quick\": " << (Quick ? "true" : "false") << ",\n";
    J << "  \"compile_config\": \"" << Opts.tag() << "\",\n";
    J << "  \"models\": [\n";
    for (size_t MI = 0; MI != Models.size(); ++MI)
      J << "    {\"tag\": \"" << Models[MI].Tag << "\", "
        << "\"total_sim_ns\": " << TotalNs[MI] << ", "
        << "\"instrs_per_sec\": " << fmtDouble(Ips(TotalNs[MI]), 1) << "}"
        << (MI + 1 == Models.size() ? "\n" : ",\n");
    J << "  ],\n";
    J << "  \"phases\": {\"decode_ns\": " << DecodeNs
      << ", \"pipeline_ns\": " << PipelineNs
      << ", \"dcache_ns\": " << DcacheNs << ", \"fetch_ns\": " << FetchNs
      << "},\n";
    J << "  \"workloads\": [\n";
    for (size_t WI = 0; WI != Rows.size(); ++WI) {
      const WorkloadRow &R = Rows[WI];
      J << "    {\"name\": \"" << R.Name << "\", \"instrs\": " << R.Instrs;
      for (size_t MI = 0; MI != Models.size(); ++MI)
        J << ", \"" << Models[MI].Tag << "_ns\": " << R.Ns[MI];
      J << ", \"ref_21164_ns\": " << R.RefNs << "}"
        << (WI + 1 == Rows.size() ? "\n" : ",\n");
    }
    J << "  ],\n  \"thread_scaling\": [";
    for (size_t I = 0; I != Scaling.size(); ++I)
      J << (I ? ", " : "") << "{\"threads\": " << Scaling[I].Threads
        << ", \"wall_ns\": " << Scaling[I].WallNs << "}";
    J << "],\n";
    J << "  \"summary\": {\"total_instrs\": " << TotalInstrs << ", "
      << "\"instrs_per_sec\": " << fmtDouble(Ips(TotalNs[3]), 1) << ", "
      << "\"fast_vs_reference_speedup\": " << fmtDouble(Speedup, 3)
      << "}\n}\n";
    std::ofstream Out(JsonPath);
    if (!Out) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    Out << J.str();
    std::printf("wrote %s\n", JsonPath.c_str());
  }

  // --- Baseline gate --------------------------------------------------------
  auto MeasuredIps = [&](const std::string &Tag) -> std::optional<double> {
    for (size_t MI = 0; MI != Models.size(); ++MI)
      if (Tag == Models[MI].Tag)
        return Ips(TotalNs[MI]);
    return std::nullopt;
  };
  if (!BaselinePath.empty() &&
      !bench::passesBaselineGate(BaselinePath, MeasuredIps)) {
    std::fprintf(stderr,
                 "FAIL: simulator throughput regressed >25%% vs baseline\n");
    return 1;
  }
  return 0;
}
