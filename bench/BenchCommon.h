//===- bench/BenchCommon.h - Shared helpers for the table benches -*- C++ -*-===//
///
/// \file
/// Helpers shared by the bsched-suite table sources and the throughput
/// trackers: configuration constructors, the per-benchmark run loop with
/// failure reporting, printf-free table emission, and wall-clock timing.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_BENCH_BENCHCOMMON_H
#define BALSCHED_BENCH_BENCHCOMMON_H

#include "driver/Experiment.h"
#include "support/Str.h"
#include "support/Table.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace bsched {
namespace bench {

/// Monotonic wall clock, in nanoseconds.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Best-of-\p Reps wall time of \p Fn, in nanoseconds (the minimum absorbs
/// scheduler noise).
template <typename FnT> uint64_t bestOf(int Reps, FnT Fn) {
  uint64_t Best = ~0ull;
  for (int R = 0; R != Reps; ++R) {
    uint64_t T0 = nowNs();
    Fn();
    Best = std::min(Best, nowNs() - T0);
  }
  return Best;
}

inline driver::CompileOptions
makeOptions(sched::SchedulerKind Kind, int Unroll = 1, bool TrS = false,
            bool LA = false) {
  driver::CompileOptions O;
  O.Scheduler = Kind;
  O.UnrollFactor = Unroll;
  O.TraceScheduling = TrS;
  O.LocalityAnalysis = LA;
  // Benches time the pipeline; the static verifier runs in tests/fuzzing.
  O.VerifyPasses = false;
  return O;
}

inline driver::CompileOptions balanced(int Unroll = 1, bool TrS = false,
                                       bool LA = false) {
  return makeOptions(sched::SchedulerKind::Balanced, Unroll, TrS, LA);
}

inline driver::CompileOptions traditional(int Unroll = 1, bool TrS = false,
                                          bool LA = false) {
  return makeOptions(sched::SchedulerKind::Traditional, Unroll, TrS, LA);
}

/// Runs (cached) and aborts the bench with a diagnostic on any failure —
/// a table must never be printed from a failed or miscompiled run.
inline const driver::RunResult &
mustRun(const driver::Workload &W, const driver::CompileOptions &Opts,
        const sim::MachineConfig &Machine = {}) {
  const driver::RunResult &R = driver::runCached(W, Opts, Machine);
  if (!R.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", R.Error.c_str());
    std::exit(1);
  }
  return R;
}

/// The full (workload x options x machine) grid as an ExperimentJob list —
/// the shape every table's jobs() registration is built from.
inline std::vector<driver::ExperimentJob>
gridJobs(const std::vector<driver::CompileOptions> &Configs,
         const std::vector<sim::MachineConfig> &Machines = {
             sim::MachineConfig{}}) {
  std::vector<driver::ExperimentJob> Jobs;
  Jobs.reserve(driver::workloads().size() * Configs.size() * Machines.size());
  for (const driver::Workload &W : driver::workloads())
    for (const driver::CompileOptions &O : Configs)
      for (const sim::MachineConfig &M : Machines)
        Jobs.push_back({&W, O, M});
  return Jobs;
}

inline void emit(const Table &T) {
  std::fputs(T.render().c_str(), stdout);
  std::fputs("\n", stdout);
}

inline void heading(const char *Text) {
  std::printf("%s\n", Text);
  for (const char *C = Text; *C; ++C)
    std::fputc('=', stdout);
  std::fputs("\n\n", stdout);
}

} // namespace bench
} // namespace bsched

#endif // BALSCHED_BENCH_BENCHCOMMON_H
