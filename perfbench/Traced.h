//===- perfbench/Traced.h - Span-instrumented pipeline replicas -*- C++ -*-===//
///
/// \file
/// The traced run's copies of driver::runCached (minus its in-memory tier),
/// driver::runWorkload, driver::compileProgram and driver::compileSource.
/// Each makes the same public layer calls, in the same order and with the
/// same arguments, as the library function it mirrors, with a span around
/// every call. The traced run checks that every result it produces encodes
/// (driver::encode) to the same bytes as the library function's, so a
/// replica that drifts from the real pipeline is caught, not measured.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_PERFBENCH_TRACED_H
#define BSCHED_PERFBENCH_TRACED_H

#include "Bench.h"

#include "driver/Experiment.h"

namespace perfbench {

using bsched::driver::CompileOptions;
using bsched::driver::CompileResult;
using bsched::driver::RunResult;
using bsched::driver::Workload;

/// runCached's disk and compute tiers: load + decode a verified artifact,
/// or run the workload and write an OK result back.
RunResult tracedRunCached(const Workload &W, const CompileOptions &Opts,
                          const bsched::sim::MachineConfig &Machine);

RunResult tracedRunWorkload(const Workload &W, const CompileOptions &Opts,
                            const bsched::sim::MachineConfig &Machine);

CompileResult tracedCompileProgram(const bsched::lang::Program &Source,
                                   const CompileOptions &Opts);

CompileResult tracedCompileSource(const std::string &Text,
                                  const std::string &Name,
                                  const CompileOptions &Opts);

/// driver::encode bytes of a result with TraceStats' phase timers zeroed:
/// they are wall-clock readings, different on every run of the same job.
std::string stableBytes(RunResult R);
std::string stableBytes(CompileResult C);

/// Adds the spans' per-layer self times (<span name>_ms) and the replicas'
/// work counts to \p L. Every name is always present, 0 when unused.
void addSpanLayers(Layers &L);

} // namespace perfbench

#endif // BSCHED_PERFBENCH_TRACED_H
