//===- tests/compile_service_test.cpp - Compile-service concurrency -------===//
//
// Stress tests for the batched, sharded compile service (driver/Experiment,
// driver/ProfileCache, ThreadPool chunked dispatch): many threads hammering
// overlapping keys must produce pointer-stable results, never recompute a
// completed key, and return results byte-identical to a 1-thread run. The
// runWorkload oracle memo must evaluate each distinct source once, never
// share a result between sources, and leave every job its own error text.
//
//===----------------------------------------------------------------------===//

#include "driver/Artifacts.h"
#include "driver/Experiment.h"
#include "driver/ProfileCache.h"
#include "driver/Workloads.h"
#include "lang/Eval.h"
#include "lower/Lower.h"
#include "opt/Cleanup.h"
#include "support/Serialize.h"
#include "support/ThreadPool.h"
#include "trace/EstimateProfile.h"

#include <gtest/gtest.h>
#include <string>
#include <vector>

using namespace bsched;
using namespace bsched::driver;

namespace {

/// Value equality of everything a table consumer reads out of a RunResult.
void expectRunResultsEqual(const RunResult &A, const RunResult &B) {
  ASSERT_TRUE(A.ok()) << A.Error;
  ASSERT_TRUE(B.ok()) << B.Error;
  EXPECT_EQ(A.Sim.Cycles, B.Sim.Cycles);
  EXPECT_EQ(A.Sim.Checksum, B.Sim.Checksum);
  EXPECT_EQ(A.Sim.Finished, B.Sim.Finished);
  EXPECT_EQ(A.Sim.LoadInterlockCycles, B.Sim.LoadInterlockCycles);
  EXPECT_EQ(A.Sim.FixedInterlockCycles, B.Sim.FixedInterlockCycles);
  EXPECT_EQ(A.RegAlloc.SpilledVRegs, B.RegAlloc.SpilledVRegs);
  EXPECT_EQ(A.Trace.Traces, B.Trace.Traces);
}

/// Distinct-but-overlapping key set: K pressure-threshold tenants over a few
/// workloads. The thresholds are chosen away from every default used
/// elsewhere so the cache-miss accounting below is exact within this binary.
std::vector<ExperimentJob> tenantJobs() {
  std::vector<ExperimentJob> Jobs;
  const auto &Ws = workloads();
  for (size_t W = 0; W != 3; ++W) {
    for (int T = 61; T != 65; ++T) {
      CompileOptions O;
      O.Scheduler = sched::SchedulerKind::Balanced;
      O.Balance.PressureThreshold = T;
      Jobs.push_back({&Ws[W], O, {}});
    }
  }
  return Jobs;
}

/// A RunResult's artifact bytes: the whole result, field for field.
std::string resultBytes(const RunResult &R) {
  ByteWriter W;
  encode(W, R);
  return W.buffer();
}

/// A balanced-scheduling configuration distinguished by \p Threshold.
CompileOptions balancedAt(int Threshold) {
  CompileOptions O;
  O.Scheduler = sched::SchedulerKind::Balanced;
  O.Balance.PressureThreshold = Threshold;
  return O;
}

/// Parses and checks, but every evaluation steps outside A.
const char *OutOfBoundsSrc = R"(
array A[8] output;
for (i = 0; i < 9; i += 1) { A[i] = i; }
)";

} // namespace

// Hammer runCached from 8 workers with every key requested many times
// concurrently: each completed key is computed exactly once (the miss
// counter moves by exactly the number of distinct keys), every caller gets
// the same stable pointer, and the values are byte-identical to an
// uncached sequential recompute.
TEST(CompileService, OverlappingKeysComputeOnce) {
  std::vector<ExperimentJob> Jobs = tenantJobs();
  const size_t Distinct = Jobs.size();
  const size_t Repeat = 8;

  ResultCacheStats Before = resultCacheStats();
  std::vector<const RunResult *> Ptrs(Distinct * Repeat, nullptr);
  ThreadPool::parallelForChunked(
      8, Ptrs.size(),
      [&](size_t I) {
        const ExperimentJob &J = Jobs[I % Distinct];
        Ptrs[I] = &runCached(*J.W, J.Opts, J.Machine);
      },
      ChunkPolicy::Guided);
  ResultCacheStats D = resultCacheStats() - Before;

  // One computation per distinct key; everything else was a hit or an
  // in-flight wait on the first computation, never a recompute.
  EXPECT_EQ(D.Misses, Distinct);
  EXPECT_EQ(D.Hits + D.InFlightWaits, Distinct * Repeat - Distinct);

  // Pointer-stable: all requests for one key resolved to one entry.
  for (size_t I = 0; I != Ptrs.size(); ++I) {
    ASSERT_NE(Ptrs[I], nullptr);
    EXPECT_EQ(Ptrs[I], Ptrs[I % Distinct]) << "request " << I;
  }

  // Byte-identical to an uncached 1-thread recompute.
  for (size_t I = 0; I != Distinct; ++I) {
    RunResult Fresh = runWorkload(*Jobs[I].W, Jobs[I].Opts, Jobs[I].Machine);
    expectRunResultsEqual(*Ptrs[I], Fresh);
  }
}

// runAll returns the same pointers in the same order for any thread count
// and either chunk policy — the byte-identical determinism contract the
// bench sweeps and table binaries rely on.
TEST(CompileService, RunAllIdenticalAcrossThreadsAndPolicies) {
  std::vector<ExperimentJob> Jobs = tenantJobs();

  std::vector<const RunResult *> Seq = runAll(Jobs, 1);
  std::vector<const RunResult *> ParGuided =
      runAll(Jobs, 8, ChunkPolicy::Guided);
  std::vector<const RunResult *> ParStatic =
      runAll(Jobs, 8, ChunkPolicy::Static);
  ASSERT_EQ(Seq.size(), Jobs.size());
  for (size_t I = 0; I != Jobs.size(); ++I) {
    EXPECT_TRUE(Seq[I]->ok()) << Seq[I]->Error;
    EXPECT_EQ(Seq[I], ParGuided[I]) << "job " << I;
    EXPECT_EQ(Seq[I], ParStatic[I]) << "job " << I;
  }
}

// The sharded profile cache under a thundering herd: 8 workers repeatedly
// profiling the same few modules. Each distinct module is interpreted
// exactly once (in-flight dedup), and every returned profile is
// bit-identical to a direct uncached interpretation.
TEST(CompileService, ProfileCacheDedupesInFlight) {
  // A few distinct laid-out modules (different workloads).
  std::vector<ir::Module> Modules;
  const auto &Ws = workloads();
  for (size_t W = 0; W != 4; ++W) {
    lang::Program P = parseWorkload(Ws[W]);
    lower::LowerResult LR = lower::lowerProgram(P, {});
    ASSERT_TRUE(LR.ok()) << LR.Error;
    opt::cleanupModule(LR.M);
    Modules.push_back(std::move(LR.M));
  }

  clearProfileCache();
  ProfileCacheStats Before = profileCacheStats();
  const size_t Repeat = 16;
  std::vector<ir::InterpResult> Out(Modules.size() * Repeat);
  ThreadPool::parallelForChunked(
      8, Out.size(),
      [&](size_t I) { Out[I] = profileModule(Modules[I % Modules.size()]); },
      ChunkPolicy::Guided);

  ProfileCacheStats S = profileCacheStats() - Before;
  EXPECT_EQ(S.Misses, Modules.size());
  EXPECT_EQ(S.Hits + S.InFlightWaits, Out.size() - Modules.size());

  for (size_t M = 0; M != Modules.size(); ++M) {
    ir::InterpResult Direct = ir::interpret(Modules[M]);
    for (size_t I = M; I < Out.size(); I += Modules.size()) {
      EXPECT_EQ(Out[I].Finished, Direct.Finished);
      EXPECT_EQ(Out[I].DynInstrs, Direct.DynInstrs);
      EXPECT_EQ(Out[I].Checksum, Direct.Checksum);
      EXPECT_EQ(Out[I].BlockCounts, Direct.BlockCounts);
      EXPECT_EQ(Out[I].EdgeCounts, Direct.EdgeCounts);
    }
  }
}

// The estimated and interpreted profiles of the *same* module live in
// distinct cache slots: the kind salt in the key keeps profileModule and
// estimatedProfileModule from ever serving each other's results, in either
// insertion order.
TEST(CompileService, ProfileKindsNeverShareASlot) {
  lang::Program P = parseWorkload(*findWorkload("hydro2d"));
  lower::LowerResult LR = lower::lowerProgram(P, {});
  ASSERT_TRUE(LR.ok()) << LR.Error;
  opt::cleanupModule(LR.M);
  const ir::Module &M = LR.M;

  clearProfileCache();
  ProfileCacheStats Before = profileCacheStats();
  ir::InterpResult Interp = profileModule(M);
  ir::InterpResult Est = estimatedProfileModule(M);
  ProfileCacheStats S = profileCacheStats() - Before;
  EXPECT_EQ(S.Misses, 2u) << "kinds collided on one cache slot";
  EXPECT_EQ(S.Hits, 0u);

  // Re-request both: now both hit, and each kind gets its own bits back.
  ir::InterpResult Interp2 = profileModule(M);
  ir::InterpResult Est2 = estimatedProfileModule(M);
  S = profileCacheStats() - Before;
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(Interp2.BlockCounts, Interp.BlockCounts);
  EXPECT_EQ(Est2.BlockCounts, Est.BlockCounts);

  // The two kinds really are different data (an interpreted run enters the
  // function once; the estimate injects EstimateEntryCount units), and the
  // cached estimate is bit-identical to an uncached estimateProfile call.
  EXPECT_NE(Est.BlockCounts, Interp.BlockCounts);
  ir::InterpResult Direct = trace::estimateProfile(M.Fn);
  EXPECT_EQ(Est.Finished, Direct.Finished);
  EXPECT_EQ(Est.BlockCounts, Direct.BlockCounts);
  EXPECT_EQ(Est.EdgeCounts, Direct.EdgeCounts);
}

// Eviction never hands out a wrong or dangling profile: push far more
// distinct modules through one shard capacity's worth of traffic than the
// per-shard bound, re-requesting earlier keys throughout, from many
// threads. (Entries are shared_ptr-held, so a sweep during an in-flight
// computation must not invalidate waiters.)
TEST(CompileService, ProfileCacheSurvivesEviction) {
  // Distinct modules via distinct instruction budgets on one module: the
  // budget is part of the key, so each MaxInstrs value is its own entry.
  lang::Program P = parseWorkload(workloads().front());
  lower::LowerResult LR = lower::lowerProgram(P, {});
  ASSERT_TRUE(LR.ok()) << LR.Error;
  opt::cleanupModule(LR.M);
  const ir::Module &M = LR.M;

  clearProfileCache();
  constexpr size_t Distinct = 600; // > total cache capacity (16 x 32).
  constexpr uint64_t BaseBudget = 1000000000ull;
  std::vector<uint64_t> Checksums(Distinct * 2);
  ThreadPool::parallelForChunked(
      8, Checksums.size(),
      [&](size_t I) {
        uint64_t Budget = BaseBudget + I % Distinct;
        Checksums[I] = profileModule(M, Budget).Checksum;
      },
      ChunkPolicy::Guided);
  uint64_t Expect = ir::interpret(M).Checksum;
  for (uint64_t C : Checksums)
    EXPECT_EQ(C, Expect);
}

// Two jobs of one program through runAll evaluate that program once; both
// jobs still pass their own checksum comparison.
TEST(OracleMemo, OneEvaluationPerProgramThroughRunAll) {
  const Workload &W = workloads()[0];
  std::vector<ExperimentJob> Jobs = {{&W, balancedAt(71), {}},
                                     {&W, balancedAt(72), {}}};
  clearResultCache();
  OracleCacheStats Before = oracleCacheStats();
  std::vector<const RunResult *> Rs = runAll(Jobs, 2);
  OracleCacheStats D = oracleCacheStats() - Before;
  EXPECT_EQ(D.Misses, 1u);
  EXPECT_EQ(D.Hits + D.InFlightWaits, 1u);
  for (const RunResult *R : Rs)
    EXPECT_TRUE(R->ok()) << R->Error;
}

// The memo keys on source text, not name: two workloads that share a name
// but not a source are evaluated separately and each simulated checksum
// matches its own program. (runCached keys on the name, so this calls
// runWorkload directly.)
TEST(OracleMemo, SameNameDifferentSourceNeverShares) {
  Workload A = workloads()[0];
  Workload B = workloads()[1];
  B.Name = A.Name;
  clearResultCache();
  OracleCacheStats Before = oracleCacheStats();
  RunResult RA = runWorkload(A, balancedAt(73));
  RunResult RB = runWorkload(B, balancedAt(73));
  EXPECT_EQ((oracleCacheStats() - Before).Misses, 2u);
  ASSERT_TRUE(RA.ok()) << RA.Error;
  ASSERT_TRUE(RB.ok()) << RB.Error;
  EXPECT_EQ(RA.Sim.Checksum,
            lang::evalProgram(parseWorkload(A)).Checksum);
  EXPECT_EQ(RB.Sim.Checksum,
            lang::evalProgram(parseWorkload(B)).Checksum);
  EXPECT_NE(RA.Sim.Checksum, RB.Sim.Checksum);
}

// Eight threads running many configurations of one program evaluate it
// once, and every result is byte-equal to a run that evaluated afresh.
TEST(OracleMemo, HammerEvaluatesOnceAndMatchesFreshRuns) {
  const Workload &W = *findWorkload("tomcatv");
  constexpr int Configs = 4;
  constexpr size_t Repeat = 6;
  clearResultCache();
  OracleCacheStats Before = oracleCacheStats();
  std::vector<std::string> Bytes(Configs * Repeat);
  ThreadPool::parallelForChunked(
      8, Bytes.size(),
      [&](size_t I) {
        Bytes[I] = resultBytes(runWorkload(W, balancedAt(81 + I % Configs)));
      },
      ChunkPolicy::Guided);
  OracleCacheStats D = oracleCacheStats() - Before;
  EXPECT_EQ(D.Misses, 1u);
  EXPECT_EQ(D.Hits + D.InFlightWaits, Bytes.size() - 1);

  for (int C = 0; C != Configs; ++C) {
    clearResultCache(); // the next runWorkload evaluates the source again.
    RunResult Fresh = runWorkload(W, balancedAt(81 + C));
    ASSERT_TRUE(Fresh.ok()) << Fresh.Error;
    EXPECT_EQ(Fresh.Sim.Checksum,
              lang::evalProgram(parseWorkload(W)).Checksum);
    std::string Expect = resultBytes(Fresh);
    for (size_t I = C; I < Bytes.size(); I += Configs)
      EXPECT_EQ(Bytes[I], Expect) << "request " << I;
  }
}

// A program the evaluator rejects: the one memoized failure reaches every
// job, each with its own "<name>: oracle:" error text.
TEST(OracleMemo, EvaluationFailureReachesEveryJob) {
  Workload A{"oob_a", "C", "out of bounds", "fails the oracle",
             OutOfBoundsSrc};
  Workload B = A;
  B.Name = "oob_b";
  clearResultCache();
  OracleCacheStats Before = oracleCacheStats();
  std::vector<ExperimentJob> Jobs = {{&A, balancedAt(91), {}},
                                     {&A, balancedAt(92), {}},
                                     {&B, balancedAt(91), {}}};
  std::vector<const RunResult *> Rs = runAll(Jobs, 3);
  EXPECT_EQ((oracleCacheStats() - Before).Misses, 1u);
  for (size_t I = 0; I != Jobs.size(); ++I) {
    std::string Prefix = std::string(Jobs[I].W->Name) + ": oracle: ";
    EXPECT_EQ(Rs[I]->Error.rfind(Prefix, 0), 0u)
        << "job " << I << ": " << Rs[I]->Error;
    EXPECT_NE(Rs[I]->Error.find("out of bounds"), std::string::npos)
        << Rs[I]->Error;
  }
}
