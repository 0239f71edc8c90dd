//===- bench/bench_compile_throughput.cpp - Compile-throughput tracker ------===//
//
// Times the hot compilation path end to end and per phase, for every
// workload at unroll {1,4,8} with and without trace scheduling, against both
// the optimized scheduler core and the preserved reference implementation
// (sched::SchedImpl::Reference). Emits machine-readable BENCH_compile.json
// so the compile-throughput trajectory is tracked across PRs, and optionally
// gates against a checked-in baseline (exit 1 on a >25% regression).
//
// Also measures the batched compile service under sustained multi-tenant
// load: a deterministic request mix of cache-hit traffic (served from the
// sharded runCached result cache), cache-miss traffic (full cold compiles),
// and profile-cold traffic (trace-scheduled compiles whose profiling run
// misses the sharded profile cache), replayed at 1/2/4/8 pool workers with
// guided chunk dispatch. Reports compiles/s, thread-scaling efficiency, and
// the shard-cache hit/miss/in-flight-wait counters, and cross-checks that
// every request's result is byte-identical across thread counts.
//
// Usage:
//   bench_compile_throughput [--quick] [--json PATH] [--baseline PATH]
//                            [--max-threads N] [--min-scale F]
//
//   --quick       1 repetition per measurement, reference timings only
//                 for the unroll-8 configurations, and a smaller sustained
//                 request mix (the CI mode).
//   --json PATH   where to write BENCH_compile.json (default: cwd).
//   --baseline    baseline JSON with "min_instrs_per_sec" per config tag;
//                 exit 1 if any measured throughput falls below 75% of it.
//   --max-threads cap for the thread-scaling sweeps (default 8).
//   --min-scale F thread-scaling regression gate: exit 1 unless sustained
//                 throughput at --max-threads workers is at least F x the
//                 1-worker throughput. F is the committed floor for an
//                 8-hardware-thread machine and is derated automatically
//                 when fewer hardware threads are available (a 1-core
//                 runner cannot scale, only avoid regressing).
//
//===----------------------------------------------------------------------===//

#include "BaselineGate.h"
#include "BenchCommon.h"
#include "driver/Compiler.h"
#include "driver/Experiment.h"
#include "driver/ProfileCache.h"
#include "driver/Workloads.h"
#include "lang/Parser.h"
#include "lower/Lower.h"
#include "opt/Cleanup.h"
#include "support/RNG.h"
#include "support/Serialize.h"
#include "support/Str.h"
#include "support/ThreadPool.h"
#include "xform/Unroll.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace bsched;
using namespace bsched::bench;
using namespace bsched::driver;

namespace {

struct BenchConfig {
  int Unroll;
  bool Traces;
  std::string Tag; ///< CompileOptions::tag() of the fast variant.
};

CompileOptions optionsFor(const BenchConfig &C, sched::SchedImpl Impl) {
  CompileOptions O;
  O.Scheduler = sched::SchedulerKind::Balanced;
  O.UnrollFactor = C.Unroll;
  O.TraceScheduling = C.Traces;
  O.VerifyPasses = false; // timing the pipeline; tests/fuzzing verify.
  O.Balance.Impl = Impl;
  return O;
}

unsigned countInstrs(const ir::Module &M) {
  unsigned N = 0;
  for (const ir::BasicBlock &B : M.Fn.Blocks)
    N += static_cast<unsigned>(B.Instrs.size());
  return N;
}

/// Digest of everything the compiled module's consumers can observe — the
/// full instruction stream — so "byte-identical across thread counts" is
/// checked on substance, not on a summary statistic.
uint64_t moduleDigest(const ir::Module &M) {
  Fnv1a H;
  H.word(M.Fn.Blocks.size());
  for (const ir::BasicBlock &B : M.Fn.Blocks) {
    H.word(B.Instrs.size());
    for (const ir::Instr &I : B.Instrs) {
      H.word(static_cast<uint64_t>(I.Op));
      H.word(I.Dst.Id);
      H.word(I.SrcA.Id);
      H.word(I.SrcB.Id);
      H.word(static_cast<uint64_t>(I.Imm));
      H.word(I.Base.Id);
      H.word(static_cast<uint64_t>(I.Offset));
      H.word(static_cast<uint64_t>(I.Target0));
      H.word(static_cast<uint64_t>(I.Target1));
    }
  }
  return H.get();
}

/// Combines per-request digests in request order: equal result vectors give
/// equal combined digests regardless of which worker produced each entry.
uint64_t combineDigests(const std::vector<uint64_t> &Ds) {
  Fnv1a H;
  for (uint64_t D : Ds)
    H.word(D);
  return H.get();
}

/// Per-phase timings over a workload's lowered (and unrolled) module:
/// cleanup and the profiling interpreter at pipeline scope, the three
/// scheduler phases over every schedulable block, and (for trace configs)
/// the trace scheduler end to end with the fast core's formation /
/// compaction / compensation split.
struct PhaseTimes {
  /// Front-end: lang::parseProgram and lang::checkProgram over the raw
  /// kernel text (ROADMAP item 1: with these, the phase breakdown finally
  /// sums to wall time). Implementation-independent — measured once per
  /// workload/config, identical for the reference twin.
  uint64_t ParseNs = 0, CheckNs = 0;
  uint64_t CleanupNs = 0, ProfileNs = 0;
  uint64_t DagNs = 0, WeightsNs = 0, ListNs = 0;
  uint64_t TraceTotalNs = 0; ///< whole traceScheduleFunction call.
  /// TraceStats phase split (fast core only; zero for the reference twin,
  /// which reports just the total). WeightsIncrementalNs is the incremental
  /// balanced-weights builder's share of TraceCompactNs.
  uint64_t TraceFormNs = 0, TraceCompactNs = 0, TraceCompNs = 0;
  uint64_t WeightsIncrementalNs = 0;
  /// Cleanup fixpoint instrumentation (CleanupStats): rounds to fixpoint,
  /// liveness solves split into full computes vs. incremental updates, and
  /// per-block pass runs the dirty-block worklist skipped. The liveness and
  /// skip counters stay zero for the reference twin.
  int CleanupRounds = 0;
  int CleanupLivenessFull = 0, CleanupLivenessIncremental = 0;
  int CleanupBlocksSkipped = 0;
};

/// Mirrors the pipeline up to (but excluding) scheduling, then times each
/// phase with the given implementation (Reference selects the seed cleanup,
/// interpreter, DAG builder, weights, and list scheduler).
PhaseTimes timePhases(const Workload &W, const lang::Program &Source,
                      int Unroll, bool Traces, int Reps,
                      sched::SchedImpl Impl) {
  PhaseTimes T;
  // Front end, from the raw text. checkProgram annotates the AST in place,
  // so each rep checks a fresh parse (the copy cost is the parse itself,
  // timed separately above it).
  T.ParseNs = bestOf(Reps, [&] {
    lang::ParseResult PR = lang::parseProgram(W.Source, W.Name);
    (void)PR;
  });
  lang::ParseResult Parsed = lang::parseProgram(W.Source, W.Name);
  if (!Parsed.ok()) {
    std::fprintf(stderr, "FATAL: parse %s: %s\n", W.Name, Parsed.Error.c_str());
    std::exit(1);
  }
  T.CheckNs = bestOf(Reps, [&] {
    lang::Program Copy = Parsed.Prog;
    if (std::string E = lang::checkProgram(Copy); !E.empty()) {
      std::fprintf(stderr, "FATAL: check %s: %s\n", W.Name, E.c_str());
      std::exit(1);
    }
  });

  lang::Program P = Source;
  if (Unroll > 1) {
    xform::unrollLoops(P, Unroll);
    // Re-check after the transform: lowering needs the checker's annotations
    // on the statements unrolling introduced (compileProgram does the same).
    if (std::string E = lang::checkProgram(P); !E.empty()) {
      std::fprintf(stderr, "FATAL: recheck: %s\n", E.c_str());
      std::exit(1);
    }
  }
  lower::LowerResult LR = lower::lowerProgram(P, {});
  if (!LR.ok()) {
    std::fprintf(stderr, "FATAL: lower: %s\n", LR.Error.c_str());
    std::exit(1);
  }
  bool Ref = Impl == sched::SchedImpl::Reference;

  // Cleanup mutates the module, so each rep works on a fresh copy; the copy
  // cost is common to both implementations.
  opt::CleanupStats CS;
  T.CleanupNs = bestOf(Reps, [&] {
    ir::Module Copy = LR.M;
    CS = opt::cleanupModule(Copy, Ref); // deterministic: same stats each rep
  });
  T.CleanupRounds = CS.Iterations;
  T.CleanupLivenessFull = CS.LivenessFullComputes;
  T.CleanupLivenessIncremental = CS.LivenessIncrementalUpdates;
  T.CleanupBlocksSkipped = CS.BlocksSkipped;
  opt::cleanupModule(LR.M);
  if (Traces) {
    T.ProfileNs = bestOf(Reps, [&] {
      ir::InterpResult IR =
          Ref ? ir::interpretByInstr(LR.M) : ir::interpret(LR.M);
      (void)IR;
    });
    // Trace scheduling mutates the module, so each rep works on a fresh copy
    // (the copy cost is common to both implementations). The fast core's
    // TraceStats timers split the total into formation / compaction /
    // compensation; the reference twin reports only the total.
    ir::InterpResult Profile = ir::interpret(LR.M);
    sched::BalanceOptions TOpts;
    TOpts.Impl = Impl;
    trace::TraceStats Last;
    T.TraceTotalNs = bestOf(Reps, [&] {
      ir::Module Copy = LR.M;
      Last = trace::traceScheduleFunction(
          Copy, Profile, sched::SchedulerKind::Balanced, TOpts,
          Ref ? trace::TraceImpl::Reference : trace::TraceImpl::Fast);
    });
    T.TraceFormNs = Last.FormNs;
    T.TraceCompactNs = Last.CompactNs;
    T.TraceCompNs = Last.CompensationNs;
    T.WeightsIncrementalNs = Last.WeightsNs;
  }

  std::vector<std::vector<const ir::Instr *>> Regions;
  for (const ir::BasicBlock &B : LR.M.Fn.Blocks) {
    if (B.Instrs.size() <= 2)
      continue;
    std::vector<const ir::Instr *> Ptrs;
    Ptrs.reserve(B.Instrs.size());
    for (const ir::Instr &I : B.Instrs)
      Ptrs.push_back(&I);
    Regions.push_back(std::move(Ptrs));
  }

  T.DagNs = bestOf(Reps, [&] {
    for (const auto &R : Regions) {
      sched::DepDAG G = sched::buildDepDAG(R, Impl);
      (void)G;
    }
  });
  // Weights and list scheduling run on the fast-built DAG either way: the
  // two builders produce identical DAGs, and this isolates each phase.
  std::vector<sched::DepDAG> Dags;
  std::vector<std::vector<double>> Ws;
  for (const auto &R : Regions) {
    Dags.push_back(sched::buildDepDAG(R));
    sched::addBlockControlEdges(Dags.back(), R);
  }
  sched::BalanceOptions BOpts;
  BOpts.Impl = Impl;
  T.WeightsNs = bestOf(Reps, [&] {
    for (size_t I = 0; I != Regions.size(); ++I) {
      std::vector<double> W = sched::balancedWeights(Dags[I], Regions[I], BOpts);
      if (I >= Ws.size())
        Ws.push_back(std::move(W));
    }
  });
  T.ListNs = bestOf(Reps, [&] {
    for (size_t I = 0; I != Regions.size(); ++I) {
      std::vector<unsigned> Order = sched::listSchedule(
          Dags[I], Ws[I], Regions[I], sched::DefaultPressureThreshold, Impl);
      (void)Order;
    }
  });
  return T;
}

struct WorkloadRow {
  std::string Name;
  unsigned Instrs = 0;
  uint64_t FastNs = 0, RefNs = 0; ///< RefNs 0 when not measured.
  PhaseTimes FastPhases, RefPhases;
};

struct ConfigRow {
  BenchConfig Config;
  std::vector<WorkloadRow> Rows;
  uint64_t totalFastNs() const {
    uint64_t S = 0;
    for (const auto &R : Rows)
      S += R.FastNs;
    return S;
  }
  uint64_t totalRefNs() const {
    uint64_t S = 0;
    for (const auto &R : Rows)
      S += R.RefNs;
    return S;
  }
  uint64_t totalInstrs() const {
    uint64_t S = 0;
    for (const auto &R : Rows)
      S += R.Instrs;
    return S;
  }
  double instrsPerSec() const {
    uint64_t Ns = totalFastNs();
    return Ns == 0 ? 0.0
                   : static_cast<double>(totalInstrs()) * 1e9 /
                         static_cast<double>(Ns);
  }
  double speedup() const {
    uint64_t F = totalFastNs(), R = totalRefNs();
    return (F == 0 || R == 0) ? 0.0
                              : static_cast<double>(R) / static_cast<double>(F);
  }
};

struct ScalePoint {
  unsigned Threads;
  uint64_t WallNs;
};

//===----------------------------------------------------------------------===//
// Sustained compile-service throughput
//===----------------------------------------------------------------------===//

/// One request of the synthetic multi-tenant mix.
struct Request {
  enum Class { Hit, Miss, ProfileCold } Kind;
  size_t WIdx;                  ///< index into workloads().
  driver::CompileOptions Opts;
};

struct SustainedPoint {
  unsigned Threads = 0;
  uint64_t WallNs = 0;
  double CompilesPerSec = 0.0;
  double ScaleVs1T = 0.0;
};

struct SustainedResult {
  size_t Requests = 0, HitReqs = 0, MissReqs = 0, ColdReqs = 0;
  std::vector<SustainedPoint> Points;
  bool Deterministic = true;     ///< per-request digests equal at every T.
  bool RunAllIdentical = true;   ///< runAll(1) and runAll(max) return the
                                 ///< same (pointer-identical) results.
  uint64_t Digest = 0;           ///< combined digest of the 1-thread replay.
  driver::ResultCacheStats ResultCache;   ///< counters after the replays.
  driver::ProfileCacheStats ProfileCache; ///< counters of the last replay.
};

/// Replays a deterministic request mix against the compile service at each
/// thread count and cross-checks that every request's observable result is
/// identical whatever the worker count. Traffic classes:
///
///  - Hit: repeated (workload, config) keys served from the sharded
///    runCached result cache (pre-warmed through runAll before timing, so
///    the timed path is pure lookup — the steady-state shape of repeat
///    tenant traffic).
///  - Miss: full cold compiles (per-request pressure-threshold tenants;
///    nothing at the service layer can memoize them).
///  - ProfileCold: trace-scheduled compiles whose profiling interpretation
///    goes through the sharded, in-flight-deduplicated profile cache; the
///    cache is cleared before every replay so each thread count sees the
///    identical cold/warm pattern.
SustainedResult runSustained(bool Quick, unsigned MaxThreads) {
  const auto &Ws = driver::workloads();
  std::vector<lang::Program> Programs;
  Programs.reserve(Ws.size());
  for (const Workload &W : Ws)
    Programs.push_back(parseWorkload(W));

  // The request mix: 60% hit / 25% miss / 15% profile-cold, drawn from a
  // fixed-seed stream so every run (and every thread count) replays the
  // same trace.
  const size_t NumRequests = Quick ? 800 : 4000;
  const int Unrolls[4] = {1, 2, 4, 8};
  std::vector<Request> Reqs;
  Reqs.reserve(NumRequests);
  SustainedResult Out;
  RNG Rng(0xc041711eull);
  for (size_t I = 0; I != NumRequests; ++I) {
    Request Q;
    Q.WIdx = Rng.nextBelow(Ws.size());
    double Roll = Rng.nextDouble();
    if (Roll < 0.60) {
      Q.Kind = Request::Hit;
      Q.Opts = bench::balanced(Rng.nextBool(0.5) ? 4 : 1);
      ++Out.HitReqs;
    } else if (Roll < 0.85) {
      Q.Kind = Request::Miss;
      Q.Opts = bench::balanced(1);
      // Distinct per-tenant scheduling parameter: every miss request is a
      // genuinely different compile, so no layer can serve it from cache.
      Q.Opts.Balance.PressureThreshold =
          20 + static_cast<int>(Rng.nextBelow(29));
      ++Out.MissReqs;
    } else {
      Q.Kind = Request::ProfileCold;
      Q.Opts = bench::balanced(Unrolls[Rng.nextBelow(4)], /*TrS=*/true);
      ++Out.ColdReqs;
    }
    Reqs.push_back(std::move(Q));
  }
  Out.Requests = NumRequests;

  // Pre-warm the hit working set (and keep the job list: the same grid
  // re-runs through runAll at MaxThreads for the pointer-identity check).
  std::vector<driver::ExperimentJob> HitJobs;
  for (const Workload &W : Ws)
    for (int U : {1, 4})
      HitJobs.push_back({&W, bench::balanced(U), {}});
  std::vector<const driver::RunResult *> Warm = driver::runAll(HitJobs, 1);
  for (const driver::RunResult *R : Warm)
    if (!R->ok()) {
      std::fprintf(stderr, "FATAL: sustained pre-warm: %s\n",
                   R->Error.c_str());
      std::exit(1);
    }

  auto Exec = [&](const Request &Q) -> uint64_t {
    if (Q.Kind == Request::Hit) {
      const driver::RunResult &R = driver::runCached(Ws[Q.WIdx], Q.Opts);
      Fnv1a H;
      H.word(R.Sim.Cycles);
      H.word(R.Sim.Checksum);
      return H.get();
    }
    driver::CompileResult CR = driver::compileProgram(Programs[Q.WIdx], Q.Opts);
    if (!CR.ok()) {
      std::fprintf(stderr, "FATAL: sustained %s: %s\n", Ws[Q.WIdx].Name,
                   CR.Error.c_str());
      std::exit(1);
    }
    return moduleDigest(CR.M);
  };

  std::vector<uint64_t> Digests(NumRequests);
  uint64_t BaseDigest = 0;
  driver::ProfileCacheStats ProfileBefore;
  for (unsigned T = 1; T <= MaxThreads; T *= 2) {
    // Identical cold/warm profile pattern for every replay.
    driver::clearProfileCache();
    ProfileBefore = driver::profileCacheStats();
    uint64_t T0 = nowNs();
    ThreadPool::parallelForChunked(
        T, NumRequests, [&](size_t I) { Digests[I] = Exec(Reqs[I]); },
        ChunkPolicy::Guided);
    uint64_t Wall = nowNs() - T0;
    uint64_t D = combineDigests(Digests);
    if (T == 1) {
      BaseDigest = D;
      Out.Digest = D;
    } else if (D != BaseDigest) {
      Out.Deterministic = false;
    }
    SustainedPoint P;
    P.Threads = T;
    P.WallNs = Wall;
    P.CompilesPerSec = static_cast<double>(NumRequests) * 1e9 /
                       static_cast<double>(Wall);
    P.ScaleVs1T = Out.Points.empty()
                      ? 1.0
                      : static_cast<double>(Out.Points.front().WallNs) /
                            static_cast<double>(Wall);
    Out.Points.push_back(P);
    std::printf("  sustained threads=%u  wall %7.1f ms  %8.0f compiles/s"
                "  scale %.2fx\n",
                T, static_cast<double>(Wall) / 1e6, P.CompilesPerSec,
                P.ScaleVs1T);
  }

  // runAll determinism: the MaxThreads pass must hand back the very same
  // memoized results (stable pointers) the 1-thread pre-warm produced.
  std::vector<const driver::RunResult *> Again =
      driver::runAll(HitJobs, MaxThreads);
  for (size_t I = 0; I != Warm.size(); ++I)
    if (Warm[I] != Again[I])
      Out.RunAllIdentical = false;

  Out.ResultCache = driver::resultCacheStats();
  Out.ProfileCache = driver::profileCacheStats() - ProfileBefore;
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  std::string JsonPath = "BENCH_compile.json";
  std::string BaselinePath;
  unsigned MaxThreads = 8;
  double MinScale = 0.0; // 0 = gate off.
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--quick"))
      Quick = true;
    else if (!std::strcmp(argv[I], "--json") && I + 1 != argc)
      JsonPath = argv[++I];
    else if (!std::strcmp(argv[I], "--baseline") && I + 1 != argc)
      BaselinePath = argv[++I];
    else if (!std::strcmp(argv[I], "--max-threads") && I + 1 != argc)
      MaxThreads = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--min-scale") && I + 1 != argc)
      MinScale = std::atof(argv[++I]);
    else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[I]);
      return 2;
    }
  }

  const int Reps = Quick ? 1 : 3;
  const std::vector<BenchConfig> Configs = {
      {1, false, "BS"},          {1, true, "BS+TrS"},
      {4, false, "BS+LU4"},      {4, true, "BS+LU4+TrS"},
      {8, false, "BS+LU8"},      {8, true, "BS+LU8+TrS"},
  };

  std::printf("compile-throughput benchmark (%s mode, best of %d)\n",
              Quick ? "quick" : "full", Reps);

  // Untimed warmup sweep over every (config, workload, impl) cell that the
  // loop below measures. One-time lazy costs — allocator arena growth, page
  // faults on first touch of the big scheduler tables — otherwise land in
  // whichever cell happens to run first; quick mode is best-of-1, so a
  // single cold compile there skews its row by an order of magnitude.
  for (const BenchConfig &C : Configs) {
    bool TimeRef = !Quick || C.Unroll == 8;
    for (const Workload &W : workloads()) {
      lang::Program P = parseWorkload(W);
      (void)compileProgram(P, optionsFor(C, sched::SchedImpl::Fast));
      if (TimeRef)
        (void)compileProgram(P, optionsFor(C, sched::SchedImpl::Reference));
    }
  }

  std::vector<ConfigRow> Results;
  for (const BenchConfig &C : Configs) {
    ConfigRow Row;
    Row.Config = C;
    // Reference timings are the expensive part; in quick mode measure them
    // only where the headline speedup is reported (unroll 8).
    bool TimeRef = !Quick || C.Unroll == 8;
    for (const Workload &W : workloads()) {
      lang::Program P = parseWorkload(W);
      WorkloadRow R;
      R.Name = W.Name;

      CompileOptions Fast = optionsFor(C, sched::SchedImpl::Fast);
      CompileResult FirstCompile = compileProgram(P, Fast);
      if (!FirstCompile.ok()) {
        std::fprintf(stderr, "FATAL: %s [%s]: %s\n", W.Name,
                     Fast.tag().c_str(), FirstCompile.Error.c_str());
        return 1;
      }
      R.Instrs = countInstrs(FirstCompile.M);
      R.FastNs = bestOf(Reps, [&] {
        CompileResult CR = compileProgram(P, Fast);
        (void)CR;
      });
      if (TimeRef) {
        CompileOptions Ref = optionsFor(C, sched::SchedImpl::Reference);
        R.RefNs = bestOf(std::max(1, Reps - 1), [&] {
          CompileResult CR = compileProgram(P, Ref);
          (void)CR;
        });
        R.RefPhases = timePhases(W, P, C.Unroll, C.Traces, 1,
                                 sched::SchedImpl::Reference);
      }
      R.FastPhases =
          timePhases(W, P, C.Unroll, C.Traces, Reps, sched::SchedImpl::Fast);
      Row.Rows.push_back(std::move(R));
    }
    // A speedup of 0 means "reference not measured in this mode"; print and
    // emit it as absent rather than as a fake 0.00x ratio.
    if (Row.totalRefNs() != 0)
      std::printf("  %-12s  %8.0f kinstr/s  end-to-end speedup %.2fx\n",
                  C.Tag.c_str(), Row.instrsPerSec() / 1e3, Row.speedup());
    else
      std::printf("  %-12s  %8.0f kinstr/s  end-to-end speedup n/a "
                  "(reference not timed)\n",
                  C.Tag.c_str(), Row.instrsPerSec() / 1e3);
    if (C.Traces) {
      uint64_t Form = 0, Compact = 0, Comp = 0, FastTr = 0, RefTr = 0;
      for (const WorkloadRow &R : Row.Rows) {
        Form += R.FastPhases.TraceFormNs;
        Compact += R.FastPhases.TraceCompactNs;
        Comp += R.FastPhases.TraceCompNs;
        FastTr += R.FastPhases.TraceTotalNs;
        RefTr += R.RefPhases.TraceTotalNs;
      }
      std::string CoreSpeedup;
      if (FastTr && RefTr)
        CoreSpeedup = "  (trace core " +
                      fmtDouble(static_cast<double>(RefTr) /
                                    static_cast<double>(FastTr),
                                2) +
                      "x)";
      std::printf("                trace form %.2f ms  compact %.2f ms  "
                  "compensation %.2f ms%s\n",
                  static_cast<double>(Form) / 1e6,
                  static_cast<double>(Compact) / 1e6,
                  static_cast<double>(Comp) / 1e6, CoreSpeedup.c_str());
    }
    Results.push_back(std::move(Row));
  }

  // --- Thread-scaling sweep -------------------------------------------------
  // Wall time to compile every (workload, config) job, fast implementation,
  // on a pool of T workers draining guided chunks (one pool task per
  // worker, not per compile). Each job's compiled module is digested by
  // index, so "the results are identical for any thread count" is asserted
  // on the full instruction streams, not assumed.
  std::vector<ScalePoint> Scaling;
  bool ScalingDeterministic = true;
  {
    struct Job {
      lang::Program P;
      CompileOptions Opts;
    };
    std::vector<Job> Jobs;
    for (const BenchConfig &C : Configs)
      for (const Workload &W : workloads())
        Jobs.push_back({parseWorkload(W), optionsFor(C, sched::SchedImpl::Fast)});
    // The profile cache stays warm from the per-config phase above (as it
    // is for every point of this sweep, so thread counts see equal work);
    // cold-profile traffic is measured separately by the sustained mode.
    std::vector<uint64_t> Digests(Jobs.size());
    uint64_t BaseDigest = 0;
    for (unsigned T = 1; T <= MaxThreads; T *= 2) {
      uint64_t T0 = nowNs();
      ThreadPool::parallelForChunked(
          T, Jobs.size(),
          [&](size_t I) {
            CompileResult CR = compileProgram(Jobs[I].P, Jobs[I].Opts);
            Digests[I] = moduleDigest(CR.M);
          },
          ChunkPolicy::Guided);
      Scaling.push_back({T, nowNs() - T0});
      uint64_t D = combineDigests(Digests);
      if (T == 1)
        BaseDigest = D;
      else if (D != BaseDigest)
        ScalingDeterministic = false;
      std::printf("  threads=%u  wall %.1f ms (%zu compiles)%s\n", T,
                  static_cast<double>(Scaling.back().WallNs) / 1e6,
                  Jobs.size(),
                  T == 1 || D == BaseDigest ? "" : "  OUTPUT DIVERGED");
    }
  }

  // --- Sustained compile-service throughput ---------------------------------
  std::printf("sustained compile service (%s mix)\n",
              Quick ? "quick" : "full");
  SustainedResult Sustained = runSustained(Quick, MaxThreads);
  std::printf("  requests %zu (hit %zu, miss %zu, profile-cold %zu)  "
              "deterministic %s  runAll identical %s\n",
              Sustained.Requests, Sustained.HitReqs, Sustained.MissReqs,
              Sustained.ColdReqs, Sustained.Deterministic ? "yes" : "NO",
              Sustained.RunAllIdentical ? "yes" : "NO");
  std::printf("  result cache: %llu hits, %llu misses, %llu in-flight waits\n",
              static_cast<unsigned long long>(Sustained.ResultCache.Hits),
              static_cast<unsigned long long>(Sustained.ResultCache.Misses),
              static_cast<unsigned long long>(
                  Sustained.ResultCache.InFlightWaits));
  std::printf("  profile cache: %llu hits, %llu misses, %llu in-flight waits\n",
              static_cast<unsigned long long>(Sustained.ProfileCache.Hits),
              static_cast<unsigned long long>(Sustained.ProfileCache.Misses),
              static_cast<unsigned long long>(
                  Sustained.ProfileCache.InFlightWaits));

  // --- Summary --------------------------------------------------------------
  const ConfigRow *Headline = nullptr;
  for (const ConfigRow &R : Results)
    if (R.Config.Tag == "BS+LU8+TrS")
      Headline = &R;
  double SchedSpeedup = 0.0;
  if (Headline) {
    uint64_t FastSched = 0, RefSched = 0;
    for (const WorkloadRow &R : Headline->Rows) {
      FastSched += R.FastPhases.DagNs + R.FastPhases.WeightsNs +
                   R.FastPhases.ListNs;
      RefSched +=
          R.RefPhases.DagNs + R.RefPhases.WeightsNs + R.RefPhases.ListNs;
    }
    if (FastSched != 0 && RefSched != 0)
      SchedSpeedup =
          static_cast<double>(RefSched) / static_cast<double>(FastSched);
    // Like the per-config rows: a ratio of 0 means "reference not timed in
    // this mode" — print n/a instead of a fake 0.00x (the JSON already
    // emits null for it).
    std::printf("summary: BS+LU8+TrS %.0f kinstr/s, end-to-end ",
                Headline->instrsPerSec() / 1e3);
    if (Headline->totalRefNs() != 0)
      std::printf("%.2fx, ", Headline->speedup());
    else
      std::printf("n/a, ");
    if (SchedSpeedup != 0.0)
      std::printf("scheduler phases %.2fx\n", SchedSpeedup);
    else
      std::printf("scheduler phases n/a\n");
  }

  // --- JSON -----------------------------------------------------------------
  {
    std::ostringstream J;
    J << "{\n  \"schema\": \"bsched-compile-throughput-v3\",\n";
    J << "  \"quick\": " << (Quick ? "true" : "false") << ",\n";
    J << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
    J << "  \"configs\": [\n";
    for (size_t CI = 0; CI != Results.size(); ++CI) {
      const ConfigRow &R = Results[CI];
      // end_to_end_speedup is null (not 0.000) when the reference twin was
      // not timed in this mode: a fake ratio reads as a 1000x regression.
      std::string Speedup =
          R.totalRefNs() == 0 ? "null" : fmtDouble(R.speedup(), 3);
      J << "    {\"tag\": \"" << R.Config.Tag << "\", "
        << "\"unroll\": " << R.Config.Unroll << ", "
        << "\"traces\": " << (R.Config.Traces ? "true" : "false") << ",\n"
        << "     \"total_instrs\": " << R.totalInstrs() << ", "
        << "\"total_compile_ns\": " << R.totalFastNs() << ", "
        << "\"instrs_per_sec\": " << fmtDouble(R.instrsPerSec(), 1) << ", "
        << "\"end_to_end_speedup\": " << Speedup << ",\n"
        << "     \"workloads\": [\n";
      for (size_t WI = 0; WI != R.Rows.size(); ++WI) {
        const WorkloadRow &W = R.Rows[WI];
        J << "      {\"name\": \"" << W.Name << "\", \"instrs\": " << W.Instrs
          << ", \"compile_ns\": " << W.FastNs
          << ", \"ref_compile_ns\": " << W.RefNs
          << ", \"phases\": {\"parse_ns\": " << W.FastPhases.ParseNs
          << ", \"check_ns\": " << W.FastPhases.CheckNs
          << ", \"cleanup_ns\": " << W.FastPhases.CleanupNs
          << ", \"profile_ns\": " << W.FastPhases.ProfileNs
          << ", \"dag_ns\": " << W.FastPhases.DagNs
          << ", \"weights_ns\": " << W.FastPhases.WeightsNs
          << ", \"listsched_ns\": " << W.FastPhases.ListNs
          << ", \"trace_total_ns\": " << W.FastPhases.TraceTotalNs
          << ", \"trace_form_ns\": " << W.FastPhases.TraceFormNs
          << ", \"trace_compact_ns\": " << W.FastPhases.TraceCompactNs
          << ", \"trace_compensation_ns\": " << W.FastPhases.TraceCompNs
          << ", \"weights_incremental_ns\": "
          << W.FastPhases.WeightsIncrementalNs
          << ", \"cleanup_rounds\": " << W.FastPhases.CleanupRounds
          << ", \"cleanup_liveness_full_computes\": "
          << W.FastPhases.CleanupLivenessFull
          << ", \"cleanup_liveness_incremental_updates\": "
          << W.FastPhases.CleanupLivenessIncremental
          << ", \"cleanup_blocks_skipped\": "
          << W.FastPhases.CleanupBlocksSkipped
          << ", \"ref_cleanup_ns\": " << W.RefPhases.CleanupNs
          << ", \"ref_profile_ns\": " << W.RefPhases.ProfileNs
          << ", \"ref_dag_ns\": " << W.RefPhases.DagNs
          << ", \"ref_weights_ns\": " << W.RefPhases.WeightsNs
          << ", \"ref_listsched_ns\": " << W.RefPhases.ListNs
          << ", \"ref_trace_total_ns\": " << W.RefPhases.TraceTotalNs << "}}"
          << (WI + 1 == R.Rows.size() ? "\n" : ",\n");
      }
      J << "     ]}" << (CI + 1 == Results.size() ? "\n" : ",\n");
    }
    J << "  ],\n  \"thread_scaling\": [";
    for (size_t I = 0; I != Scaling.size(); ++I)
      J << (I ? ", " : "") << "{\"threads\": " << Scaling[I].Threads
        << ", \"wall_ns\": " << Scaling[I].WallNs << "}";
    J << "],\n";
    J << "  \"thread_scaling_deterministic\": "
      << (ScalingDeterministic ? "true" : "false") << ",\n";
    J << "  \"sustained\": {\"requests\": " << Sustained.Requests
      << ", \"mix\": {\"hit\": " << Sustained.HitReqs
      << ", \"miss\": " << Sustained.MissReqs
      << ", \"profile_cold\": " << Sustained.ColdReqs << "},\n"
      << "    \"deterministic\": "
      << (Sustained.Deterministic ? "true" : "false")
      << ", \"runall_identical_1_vs_max\": "
      << (Sustained.RunAllIdentical ? "true" : "false") << ",\n"
      << "    \"points\": [";
    for (size_t I = 0; I != Sustained.Points.size(); ++I) {
      const SustainedPoint &P = Sustained.Points[I];
      J << (I ? ", " : "") << "{\"threads\": " << P.Threads
        << ", \"wall_ns\": " << P.WallNs << ", \"compiles_per_sec\": "
        << fmtDouble(P.CompilesPerSec, 1) << ", \"scale_vs_1t\": "
        << fmtDouble(P.ScaleVs1T, 3) << "}";
    }
    J << "]},\n";
    J << "  \"result_cache\": {\"hits\": " << Sustained.ResultCache.Hits
      << ", \"misses\": " << Sustained.ResultCache.Misses
      << ", \"inflight_waits\": " << Sustained.ResultCache.InFlightWaits
      << "},\n";
    J << "  \"profile_cache\": {\"hits\": " << Sustained.ProfileCache.Hits
      << ", \"misses\": " << Sustained.ProfileCache.Misses
      << ", \"inflight_waits\": " << Sustained.ProfileCache.InFlightWaits
      << "},\n";
    J << "  \"summary\": {\"headline\": \"BS+LU8+TrS\", "
      << "\"instrs_per_sec\": "
      << fmtDouble(Headline ? Headline->instrsPerSec() : 0.0, 1) << ", "
      << "\"end_to_end_speedup\": "
      << (Headline && Headline->totalRefNs() != 0
              ? fmtDouble(Headline->speedup(), 3)
              : std::string("null"))
      << ", "
      << "\"scheduler_phase_speedup\": "
      << (SchedSpeedup != 0.0 ? fmtDouble(SchedSpeedup, 3)
                              : std::string("null"))
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
    for (const ConfigRow &R : Results)
      if (R.Config.Tag == Tag)
        return R.instrsPerSec();
    return std::nullopt;
  };
  if (!BaselinePath.empty() &&
      !bench::passesBaselineGate(BaselinePath, MeasuredIps)) {
    std::fprintf(stderr,
                 "FAIL: compile throughput regressed >25%% vs baseline\n");
    return 1;
  }

  // --- Determinism gate -----------------------------------------------------
  // Divergent output across thread counts is a correctness bug, not a
  // performance number; always fatal.
  if (!ScalingDeterministic || !Sustained.Deterministic ||
      !Sustained.RunAllIdentical) {
    std::fprintf(stderr, "FAIL: results differ across thread counts "
                         "(scaling %d, sustained %d, runAll %d)\n",
                 ScalingDeterministic, Sustained.Deterministic,
                 Sustained.RunAllIdentical);
    return 1;
  }

  // --- Thread-scaling gate --------------------------------------------------
  // The committed floor (--min-scale, set in CI) is calibrated for an
  // 8-hardware-thread machine; with fewer cores perfect scaling is capped
  // at the core count, so derate the floor to 0.6x the available cores —
  // and on a single-core machine just require that extra workers do not
  // regress the 1-worker wall time by more than ~30%.
  if (MinScale > 0.0 && Sustained.Points.size() >= 2) {
    unsigned HW = std::max(1u, std::thread::hardware_concurrency());
    double Floor = MinScale;
    if (HW < 8)
      Floor = std::min(MinScale, HW > 1 ? 0.6 * static_cast<double>(HW) : 0.7);
    double Scale = Sustained.Points.back().ScaleVs1T;
    std::printf("gate: sustained scale %ut/%ut = %.2fx (floor %.2fx, "
                "%u hardware threads) %s\n",
                Sustained.Points.back().Threads, 1u, Scale, Floor, HW,
                Scale >= Floor ? "ok" : "REGRESSION");
    if (Scale < Floor) {
      std::fprintf(stderr, "FAIL: sustained thread scaling below floor\n");
      return 1;
    }
  }
  return 0;
}
