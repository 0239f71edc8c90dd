//===- perfbench/Bench.h - Shared plumbing of the benchmark -----*- C++ -*-===//
///
/// \file
/// Options, host probes and the one-line JSON report shared by the
/// reproduction workloads (Repro.cpp) and the compile stream (Stream.cpp).
/// Each bsched-perfbench process runs one round of one workload and prints
/// one JSON object as its last line of standard output; run.py aggregates
/// the rounds into the benchmark's metrics.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_PERFBENCH_BENCH_H
#define BSCHED_PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string Mode;       ///< repro-cold | repro-warm | compile-stream
  uint64_t Seed = 1;
  unsigned Workers = 4;
  std::string Store;      ///< artifact store directory (repro-*).
  std::string TablesDir;  ///< cold: write table bytes here; warm: compare.
  std::vector<std::string> Tables; ///< table subset (default: all 15).
  double Seconds = 0;     ///< compile-stream: repeat passes this long.
  bool Traced = false;
  std::string TraceOut;   ///< Chrome trace-event JSON of the spans.
  std::string Plant;      ///< planted fault, for the benchmark's own test.
};

/// Set-up repetitions per process; the median is reported, so the
/// first (cold-cache) repetition does not set the figure alone.
constexpr int SetupReps = 51;

int runRepro(const Args &A);
int runStream(const Args &A);

/// User + system CPU seconds of this process.
double processCpuSeconds();
/// CPU seconds of the calling thread.
double threadCpuSeconds();
double peakRssMb();
double loadAverage1();
/// Time the hypervisor ran other guests on this machine's CPUs, summed over
/// all CPUs (the "steal" column of /proc/stat); 0 where unavailable.
double stealSeconds();

/// Deterministic 64-bit mixer (splitmix64) for seeded choices.
uint64_t mix64(uint64_t X);

/// Per-layer metric name -> value (traced runs).
using Layers = std::map<std::string, double>;

/// The figures every workload reports for its round.
struct Round {
  std::vector<double> SetupS;  ///< each repetition of the set-up.
  std::vector<double> WallS;   ///< one entry per timed pass.
  std::vector<double> CpuS;
  std::vector<double> StealShare; ///< per pass: steal / (elapsed x nproc).
  std::vector<double> LatMs;   ///< one entry per top-level operation.
  uint64_t Attempted = 0;
  std::vector<std::string> Failures; ///< one message per failed operation.
  Layers PerLayer;             ///< traced runs only.
};

/// Prints the round (with host context) as the last line of stdout.
void printRound(const Args &A, const Round &R, double LoadBefore);

} // namespace perfbench

#endif // BSCHED_PERFBENCH_BENCH_H
