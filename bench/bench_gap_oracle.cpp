//===- bench/bench_gap_oracle.cpp - Balanced-scheduling optimality gap ------===//
//
// The question the paper leaves open: how far from cycle-optimal are
// balanced scheduling (BS) and greedy/traditional list scheduling (TS)?
// For every workload and machine model (the exact oracle's modelled
// load-to-use latency: L1 hit, L2, memory), compiles each scheduler's
// output up to (but excluding) register allocation, asks the
// branch-and-bound oracle (sched/Exact.h) for the proven per-block optimum,
// and reports the cycle gap over solver-closed blocks plus closure rates
// and solve time. Emits machine-readable BENCH_gap.json.
//
// Usage:
//   bench_gap_oracle [--quick] [--json PATH] [--unroll N]
//                    [--min-closure PCT]
//
//   --quick        reduced solver budgets (the CI mode).
//   --json PATH    where to write BENCH_gap.json (default: cwd).
//   --unroll N     unroll factor for every compile (default 4).
//   --min-closure  exit 1 if the overall %-closed falls below PCT.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/Compiler.h"
#include "driver/Workloads.h"
#include "sched/DepDAG.h"
#include "sched/Exact.h"
#include "support/Str.h"

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
using namespace bsched::sched;

namespace {

/// One machine-model axis point: the exact model's load-to-use latency.
struct ModelPoint {
  const char *Tag;
  int LoadLatency;
};

/// Per-(workload, model, scheduler) solver outcome.
struct SchedCell {
  unsigned Attempted = 0, Closed = 0, TimedOut = 0, TooLarge = 0;
  uint64_t FastCycles = 0, OptCycles = 0; ///< summed over closed blocks.
  uint64_t SolveNs = 0, Expanded = 0;

  double gapPct() const {
    return OptCycles == 0 ? 0.0
                          : 100.0 *
                                (static_cast<double>(FastCycles) -
                                 static_cast<double>(OptCycles)) /
                                static_cast<double>(OptCycles);
  }
  void add(const SchedCell &O) {
    Attempted += O.Attempted;
    Closed += O.Closed;
    TimedOut += O.TimedOut;
    TooLarge += O.TooLarge;
    FastCycles += O.FastCycles;
    OptCycles += O.OptCycles;
    SolveNs += O.SolveNs;
    Expanded += O.Expanded;
  }
};

/// Compiles \p P under \p Kind (stopping before register allocation) and
/// runs the exact oracle over every schedulable block.
SchedCell solveBlocks(const lang::Program &P, SchedulerKind Kind, int Unroll,
                      const exact::ExactOptions &EO) {
  CompileOptions Opts;
  Opts.Scheduler = Kind;
  Opts.UnrollFactor = Unroll;
  Opts.StopBeforeRegAlloc = true;
  Opts.VerifyPasses = false; // timing/measuring; tests verify.
  CompileResult C = compileProgram(P, Opts);
  if (!C.ok()) {
    std::fprintf(stderr, "FATAL: compile [%s]: %s\n", Opts.tag().c_str(),
                 C.Error.c_str());
    std::exit(1);
  }
  SchedCell Cell;
  for (const ir::BasicBlock &B : C.M.Fn.Blocks) {
    if (B.Instrs.size() <= 2)
      continue;
    if (B.Instrs.size() > EO.MaxNodes) {
      ++Cell.TooLarge;
      continue;
    }
    std::vector<const ir::Instr *> Ptrs;
    Ptrs.reserve(B.Instrs.size());
    for (const ir::Instr &I : B.Instrs)
      Ptrs.push_back(&I);
    DepDAG G = buildDepDAG(Ptrs);
    addBlockControlEdges(G, Ptrs);
    // The block is already in scheduled order: identity IS this scheduler's
    // issue order under the model.
    std::vector<unsigned> Fast(Ptrs.size());
    for (unsigned K = 0; K != Ptrs.size(); ++K)
      Fast[K] = K;
    unsigned FastCycles = exact::evaluateOrder(G, Ptrs, Fast, EO);
    uint64_t T0 = nowNs();
    exact::ExactResult R = exact::scheduleExact(G, Ptrs, EO, &Fast);
    Cell.SolveNs += nowNs() - T0;
    Cell.Expanded += R.Expanded;
    ++Cell.Attempted;
    if (R.closed()) {
      ++Cell.Closed;
      Cell.FastCycles += FastCycles;
      Cell.OptCycles += R.Cycles;
    } else {
      ++Cell.TimedOut;
    }
  }
  return Cell;
}

struct WorkloadRow {
  std::string Name;
  SchedCell BS, TS;
};

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  std::string JsonPath = "BENCH_gap.json";
  int Unroll = 4;
  double MinClosure = -1.0;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--quick"))
      Quick = true;
    else if (!std::strcmp(argv[I], "--json") && I + 1 != argc)
      JsonPath = argv[++I];
    else if (!std::strcmp(argv[I], "--unroll") && I + 1 != argc)
      Unroll = std::atoi(argv[++I]);
    else if (!std::strcmp(argv[I], "--min-closure") && I + 1 != argc)
      MinClosure = std::atof(argv[++I]);
    else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[I]);
      return 2;
    }
  }

  exact::ExactOptions EO;
  if (Quick) {
    EO.MaxNodes = 32;
    EO.MaxExpansions = 30000;
  }
  const std::vector<ModelPoint> Models = {
      {"hit", ir::LoadHitLatency}, {"l2", 8}, {"mem", 50}};

  std::printf("optimality-gap oracle (%s mode, unroll %d, "
              "max-nodes %u, budget %llu)\n",
              Quick ? "quick" : "full", Unroll, EO.MaxNodes,
              static_cast<unsigned long long>(EO.MaxExpansions));

  std::vector<std::pair<ModelPoint, std::vector<WorkloadRow>>> Results;
  SchedCell Overall;
  for (const ModelPoint &M : Models) {
    exact::ExactOptions MEO = EO;
    MEO.LoadLatency = M.LoadLatency;
    std::vector<WorkloadRow> Rows;
    SchedCell ModelBS, ModelTS;
    for (const Workload &W : workloads()) {
      lang::Program P = parseWorkload(W);
      WorkloadRow Row;
      Row.Name = W.Name;
      Row.BS = solveBlocks(P, SchedulerKind::Balanced, Unroll, MEO);
      Row.TS = solveBlocks(P, SchedulerKind::Traditional, Unroll, MEO);
      ModelBS.add(Row.BS);
      ModelTS.add(Row.TS);
      Rows.push_back(std::move(Row));
    }
    Overall.add(ModelBS);
    Overall.add(ModelTS);
    unsigned Att = ModelBS.Attempted + ModelTS.Attempted;
    unsigned Cls = ModelBS.Closed + ModelTS.Closed;
    std::printf("  model %-4s  BS gap %5.2f%%  TS gap %5.2f%%  closed "
                "%u/%u (%.0f%%)  solve %.1f ms\n",
                M.Tag, ModelBS.gapPct(), ModelTS.gapPct(), Cls, Att,
                Att ? 100.0 * Cls / Att : 0.0,
                static_cast<double>(ModelBS.SolveNs + ModelTS.SolveNs) / 1e6);
    Results.emplace_back(M, std::move(Rows));
  }

  double ClosurePct = Overall.Attempted
                          ? 100.0 * Overall.Closed / Overall.Attempted
                          : 0.0;
  std::printf("summary: %u blocks attempted, %u closed (%.1f%%), "
              "%u timed out, %u over the node budget\n",
              Overall.Attempted, Overall.Closed, ClosurePct, Overall.TimedOut,
              Overall.TooLarge / 2);

  // --- JSON -----------------------------------------------------------------
  {
    auto EmitCell = [](std::ostringstream &J, const char *Key,
                       const SchedCell &C) {
      J << "\"" << Key << "\": {\"attempted\": " << C.Attempted
        << ", \"closed\": " << C.Closed << ", \"timed_out\": " << C.TimedOut
        << ", \"too_large\": " << C.TooLarge
        << ", \"cycles\": " << C.FastCycles
        << ", \"optimal_cycles\": " << C.OptCycles
        << ", \"gap_pct\": " << fmtDouble(C.gapPct(), 2)
        << ", \"solve_ns\": " << C.SolveNs
        << ", \"expanded\": " << C.Expanded << "}";
    };
    std::ostringstream J;
    J << "{\n  \"schema\": \"bsched-gap-oracle-v1\",\n";
    J << "  \"quick\": " << (Quick ? "true" : "false")
      << ", \"unroll\": " << Unroll << ", \"max_nodes\": " << EO.MaxNodes
      << ", \"max_expansions\": " << EO.MaxExpansions << ",\n";
    J << "  \"models\": [\n";
    for (size_t MI = 0; MI != Results.size(); ++MI) {
      const auto &[M, Rows] = Results[MI];
      J << "    {\"model\": \"" << M.Tag
        << "\", \"load_latency\": " << M.LoadLatency << ",\n"
        << "     \"workloads\": [\n";
      for (size_t WI = 0; WI != Rows.size(); ++WI) {
        J << "      {\"name\": \"" << Rows[WI].Name << "\", ";
        EmitCell(J, "bs", Rows[WI].BS);
        J << ", ";
        EmitCell(J, "ts", Rows[WI].TS);
        J << "}" << (WI + 1 == Rows.size() ? "\n" : ",\n");
      }
      J << "     ]}" << (MI + 1 == Results.size() ? "\n" : ",\n");
    }
    J << "  ],\n  \"summary\": {\"attempted\": " << Overall.Attempted
      << ", \"closed\": " << Overall.Closed
      << ", \"closure_pct\": " << fmtDouble(ClosurePct, 1)
      << ", \"solve_ns\": " << Overall.SolveNs << "}\n}\n";
    std::ofstream Out(JsonPath);
    if (!Out) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    Out << J.str();
    std::printf("wrote %s\n", JsonPath.c_str());
  }

  if (MinClosure >= 0.0 && ClosurePct < MinClosure) {
    std::fprintf(stderr, "FAIL: closure %.1f%% below the %.1f%% floor\n",
                 ClosurePct, MinClosure);
    return 1;
  }
  return 0;
}
