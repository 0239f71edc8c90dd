//===- bench/BaselineGate.h - Throughput floors from a baseline file -*- C++ -*-===//
///
/// \file
/// The regression gate shared by the throughput trackers
/// (bench_compile_throughput, bench_sim_throughput): a committed baseline
/// file names a floor per tag, and a measurement fails when it drops below
/// 0.75x its floor.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_BENCH_BASELINEGATE_H
#define BALSCHED_BENCH_BASELINEGATE_H

#include <functional>
#include <optional>
#include <string>

namespace bsched {
namespace bench {

/// Reads the "min_instrs_per_sec" entries of the baseline JSON at \p Path
/// (deliberately simple: lines of the form  "TAG": NUMBER; an unreadable
/// file is fatal) and checks each tag's measured instr/s, from \p Measure,
/// against 0.75x its entry, printing one "gate:" line per tag. A tag that
/// \p Measure does not know (nullopt) fails the gate. Returns true when
/// every tag passed.
bool passesBaselineGate(
    const std::string &Path,
    const std::function<std::optional<double>(const std::string &Tag)>
        &Measure);

} // namespace bench
} // namespace bsched

#endif // BALSCHED_BENCH_BASELINEGATE_H
