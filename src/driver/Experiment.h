//===- driver/Experiment.h - Experiment harness -----------------*- C++ -*-===//
///
/// \file
/// The experiment harness behind bsched-suite's tables: compiles a workload
/// under one configuration, simulates it, cross-checks the result against
/// the functional oracle, and memoizes (workload, configuration, machine)
/// runs so overlapping tables share them. Both memos (results and oracle
/// checksums) are support/OnceCache instances.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_DRIVER_EXPERIMENT_H
#define BALSCHED_DRIVER_EXPERIMENT_H

#include "driver/Compiler.h"
#include "driver/Workloads.h"
#include "sim/Machine.h"
#include "support/OnceCache.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <string>
#include <vector>

namespace bsched {
namespace driver {

struct RunResult {
  std::string Error; ///< empty on success.
  sim::SimResult Sim;

  // Compilation statistics for the tables' footnote-level discussion.
  xform::UnrollStats Unroll;
  locality::LocalityStats Locality;
  trace::TraceStats Trace;
  regalloc::RegAllocStats RegAlloc;

  bool ok() const { return Error.empty(); }
};

/// Compiles and simulates \p W under \p Opts on \p Machine. The simulated
/// checksum is verified against the AST evaluator; a mismatch is an error
/// (an experiment must never report numbers from a miscompiled program).
///
/// The evaluator runs once per distinct source text per process (the memo is
/// keyed on W.Source and the evaluation budget, never on W.Name, and
/// clearResultCache drops it); every job still compares its own simulated
/// checksum against that result and builds its own error text.
RunResult runWorkload(const Workload &W, const CompileOptions &Opts,
                      const sim::MachineConfig &Machine = {});

/// The content key runCached memoizes under: workload name + options tag +
/// machine model + every option that changes the result. This exact string
/// is also the persistent store's key material (ArtifactStore salts it with
/// the schema version), and the suite runner deduplicates cross-table jobs
/// by comparing it.
std::string resultKey(const Workload &W, const CompileOptions &Opts,
                      const sim::MachineConfig &Machine = {});

/// Memoized variant keyed on resultKey(); the suite's tables use this so
/// overlapping tables share runs.
///
/// Thread-safe: an unbounded OnceCache, so concurrent callers with distinct
/// keys neither recompute nor contend on one lock, and concurrent callers
/// with the same key block until the first one finishes and then share its
/// result (a completed key is never recomputed). Returned references stay
/// valid for the process lifetime (until clearResultCache).
///
/// When the persistent ArtifactStore is enabled, a memory miss first tries
/// the disk tier: a verified on-disk artifact is decoded instead of
/// recomputed, and a computed OK result is written back. Disk entries that
/// fail any check degrade to recompute — identical results, just slower.
const RunResult &runCached(const Workload &W, const CompileOptions &Opts,
                           const sim::MachineConfig &Machine = {});

/// Empties the in-memory result cache and runWorkload's oracle memo (their
/// counters keep counting). All references previously returned by
/// runCached/runAll become dangling — callers are the suite runner (between
/// its cold and warm measurement passes) and tests, which drop their results
/// first. Must not race with runCached.
void clearResultCache();

/// runCached's process-cumulative counters. Hits found a completed entry,
/// Misses paid the compile+simulate (or the disk load), InFlightWaits
/// arrived while another thread was computing the same key and blocked on it.
using ResultCacheStats = OnceCacheStats;
ResultCacheStats resultCacheStats();

/// runWorkload's oracle memo, process-cumulative. Misses ran
/// lang::evalProgram, Hits found a finished evaluation of the same source,
/// InFlightWaits blocked on one another thread was running.
using OracleCacheStats = OnceCacheStats;
OracleCacheStats oracleCacheStats();

/// One (workload, configuration, machine) cell of an experiment.
struct ExperimentJob {
  const Workload *W = nullptr;
  CompileOptions Opts;
  sim::MachineConfig Machine;
};

/// Runs every job through runCached on \p NumThreads pool workers (0 = one
/// per hardware thread) and returns the results in job order. Jobs are
/// dispatched in *batches* — each worker drains chunks of the job list per
/// \p Policy (guided by default, static selectable) — so the pool queue is
/// touched once per worker rather than once per compile. Each compile is a
/// pure function of its job — per-compile RNG streams, no shared mutable
/// state — and results are written by job index, so the returned vector is
/// byte-identical for any thread count and chunk policy; the
/// golden-schedule and compile-service tests assert this.
std::vector<const RunResult *>
runAll(const std::vector<ExperimentJob> &Jobs, unsigned NumThreads = 0,
       ChunkPolicy Policy = ChunkPolicy::Guided);

/// Arithmetic mean (the paper reports arithmetic average speedups).
double mean(const std::vector<double> &Xs);

/// speedup = Base / New in total cycles.
double speedup(const RunResult &Base, const RunResult &New);

/// Percentage decrease from Base to New (0.23 = 23% fewer).
double pctDecrease(uint64_t Base, uint64_t New);

} // namespace driver
} // namespace bsched

#endif // BALSCHED_DRIVER_EXPERIMENT_H
