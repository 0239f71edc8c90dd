//===- tests/golden_schedule_test.cpp - Schedule determinism goldens --------===//
//
// Pins the scheduler's output down to the byte:
//
//  * Golden hashes: every workload, compiled under a spread of scheduler
//    kinds and configurations (virtual-register code, pre-regalloc), must
//    hash to the checked-in value in golden_schedules.inc. Any change to
//    scheduling output — intended or not — shows up as a diff of that file.
//  * Fast == Reference: the optimized scheduler core (sched::SchedImpl::Fast)
//    must reproduce the preserved seed implementation's output exactly, for
//    every workload and configuration.
//  * Thread invariance: running experiments on a thread pool must give
//    results identical to running them sequentially, and runCached must hand
//    every concurrent caller the same stable reference.
//
// Regenerating the goldens after an intentional scheduling change:
//   BSCHED_GOLDEN_REGEN=1 ./golden_schedule_test > tests/golden_schedules.inc
//
//===----------------------------------------------------------------------===//

#include "driver/Experiment.h"
#include "ir/Interp.h"
#include "lang/Parser.h"
#include "lower/Lower.h"
#include "opt/Cleanup.h"
#include "regalloc/LinearScan.h"
#include "support/Serialize.h"
#include "support/ThreadPool.h"
#include "xform/Unroll.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace bsched;
using namespace bsched::driver;

namespace {

/// The configurations pinned by the golden table: each scheduler kind on
/// straight-line blocks, plus the big-block (unroll 8) and trace paths for
/// the two kinds the paper compares throughout — each trace path twice,
/// once with the interpreted profile and once with the static estimate
/// (trace::estimateProfile), so estimator changes show up as golden diffs.
std::vector<CompileOptions> goldenConfigs() {
  std::vector<CompileOptions> Cs;
  auto Base = [] {
    CompileOptions O;
    O.StopBeforeRegAlloc = true; // hash the schedule, not the allocator
    O.VerifyPasses = false;      // legality is pipeline_test/fuzz_test's job
    return O;
  };
  for (sched::SchedulerKind K :
       {sched::SchedulerKind::Balanced, sched::SchedulerKind::Traditional,
        sched::SchedulerKind::Hybrid}) {
    CompileOptions O = Base();
    O.Scheduler = K;
    Cs.push_back(O);
  }
  for (sched::SchedulerKind K :
       {sched::SchedulerKind::Balanced, sched::SchedulerKind::Traditional}) {
    for (bool Est : {false, true}) {
      CompileOptions O = Base();
      O.Scheduler = K;
      O.UnrollFactor = 8;
      O.TraceScheduling = true;
      O.UseEstimatedProfile = Est;
      Cs.push_back(O);
    }
  }
  return Cs;
}

std::string compiledText(const lang::Program &P, CompileOptions Opts,
                         sched::SchedImpl Impl) {
  Opts.Balance.Impl = Impl;
  CompileResult C = compileProgram(P, Opts);
  EXPECT_TRUE(C.ok()) << C.Error;
  return C.ok() ? ir::printFunction(C.M.Fn) : std::string();
}

struct GoldenRow {
  const char *Config;
  const char *Workload;
  uint64_t Hash;
};

const GoldenRow GoldenTable[] = {
#include "golden_schedules.inc"
    {"", "", 0}, // sentinel so the array is never empty pre-regeneration
};

const GoldenRow *findGolden(const std::string &Config,
                            const std::string &Workload) {
  for (const GoldenRow &R : GoldenTable)
    if (Config == R.Config && Workload == R.Workload)
      return &R;
  return nullptr;
}

} // namespace

/// Fast and Reference cores produce byte-identical virtual-register code for
/// every workload under every golden configuration, and the fast output
/// matches the checked-in golden hash.
TEST(GoldenSchedule, FastMatchesReferenceAndGoldens) {
  bool Regen = std::getenv("BSCHED_GOLDEN_REGEN") != nullptr;
  for (const CompileOptions &Opts : goldenConfigs()) {
    for (const Workload &W : workloads()) {
      lang::Program P = parseWorkload(W);
      std::string Fast = compiledText(P, Opts, sched::SchedImpl::Fast);
      std::string Ref = compiledText(P, Opts, sched::SchedImpl::Reference);
      ASSERT_FALSE(Fast.empty());
      EXPECT_EQ(Fast, Ref) << W.Name << " [" << Opts.tag()
                           << "]: optimized scheduler diverged from the "
                              "reference implementation";
      if (Opts.TraceScheduling) {
        // The trace-core twin must hit the same golden bytes: fast scheduler
        // core both times, only the trace scheduler differs.
        CompileOptions TraceRef = Opts;
        TraceRef.TraceImpl = trace::TraceImpl::Reference;
        std::string TR = compiledText(P, TraceRef, sched::SchedImpl::Fast);
        EXPECT_EQ(Fast, TR) << W.Name << " [" << Opts.tag()
                            << "]: fast trace core diverged from the "
                               "reference trace twin";
      }
      uint64_t H = fnv1a(Fast);
      if (Regen) {
        std::printf("    {\"%s\", \"%s\", 0x%016llxull},\n",
                    Opts.tag().c_str(), W.Name,
                    static_cast<unsigned long long>(H));
        continue;
      }
      const GoldenRow *G = findGolden(Opts.tag(), W.Name);
      ASSERT_NE(G, nullptr)
          << W.Name << " [" << Opts.tag() << "]: no golden entry "
          << "(regenerate tests/golden_schedules.inc)";
      EXPECT_EQ(G->Hash, H)
          << W.Name << " [" << Opts.tag() << "]: schedule changed "
          << "(regenerate tests/golden_schedules.inc if intended)";
    }
  }
}

namespace {

/// Lowers \p W (optionally unrolled) without cleanup, ready for a pass-level
/// differential run.
ir::Module lowerWorkload(const Workload &W, int Unroll) {
  lang::Program P = parseWorkload(W);
  if (Unroll > 1) {
    xform::unrollLoops(P, Unroll);
    EXPECT_EQ(lang::checkProgram(P), "");
  }
  lower::LowerResult LR = lower::lowerProgram(P, {});
  EXPECT_TRUE(LR.ok()) << W.Name << ": " << LR.Error;
  return std::move(LR.M);
}

} // namespace

/// The dense timestamp-validated cleanup passes make the same decisions as
/// the preserved map-based reference passes: identical stats and identical
/// module text on every workload, plain and unrolled.
TEST(PassEquivalence, CleanupFastMatchesReference) {
  for (const Workload &W : workloads()) {
    for (int Unroll : {1, 8}) {
      ir::Module FastM = lowerWorkload(W, Unroll);
      ir::Module RefM = FastM;
      opt::CleanupStats FS = opt::cleanupModule(FastM, /*UseReferenceImpl=*/false);
      opt::CleanupStats RS = opt::cleanupModule(RefM, /*UseReferenceImpl=*/true);
      EXPECT_EQ(FS.CopiesPropagated, RS.CopiesPropagated) << W.Name;
      EXPECT_EQ(FS.ConstantsFolded, RS.ConstantsFolded) << W.Name;
      EXPECT_EQ(FS.Hoisted, RS.Hoisted) << W.Name;
      EXPECT_EQ(FS.DeadRemoved, RS.DeadRemoved) << W.Name;
      EXPECT_EQ(FS.Iterations, RS.Iterations) << W.Name;
      EXPECT_EQ(ir::printFunction(FastM.Fn), ir::printFunction(RefM.Fn))
          << W.Name << " LU" << Unroll
          << ": dense cleanup diverged from the reference passes";
    }
  }
}

/// The dense linear-scan allocator and the preserved map-based seed
/// allocator emit identical code and stats — including under a tight
/// register file that forces spills, restores, and remats everywhere.
TEST(PassEquivalence, RegAllocFastMatchesReference) {
  for (const Workload &W : workloads()) {
    for (unsigned PerClass : {28u, 6u}) {
      ir::Module FastM = lowerWorkload(W, 4);
      opt::cleanupModule(FastM);
      ir::Module RefM = FastM;
      regalloc::RegAllocOptions Opts;
      Opts.AllocatablePerClass = PerClass;
      regalloc::RegAllocStats FS =
          regalloc::allocateRegisters(FastM, Opts, /*UseReferenceImpl=*/false);
      regalloc::RegAllocStats RS =
          regalloc::allocateRegisters(RefM, Opts, /*UseReferenceImpl=*/true);
      ASSERT_TRUE(FS.ok()) << W.Name << ": " << FS.Error;
      ASSERT_TRUE(RS.ok()) << W.Name << ": " << RS.Error;
      EXPECT_EQ(FS.SpilledVRegs, RS.SpilledVRegs) << W.Name;
      EXPECT_EQ(FS.SpillStores, RS.SpillStores) << W.Name;
      EXPECT_EQ(FS.RestoreLoads, RS.RestoreLoads) << W.Name;
      EXPECT_EQ(FS.Remats, RS.Remats) << W.Name;
      EXPECT_EQ(FS.IntRegsUsed, RS.IntRegsUsed) << W.Name;
      EXPECT_EQ(FS.FpRegsUsed, RS.FpRegsUsed) << W.Name;
      EXPECT_EQ(ir::printFunction(FastM.Fn), ir::printFunction(RefM.Fn))
          << W.Name << " regs/class=" << PerClass
          << ": dense allocator diverged from the reference allocator";
    }
  }
}

/// The predecoded interpreter reproduces the instruction-at-a-time executor
/// bit for bit: same termination, dynamic instruction count, checksum, and
/// block/edge profile on every workload.
TEST(PassEquivalence, PredecodedInterpreterMatchesByInstr) {
  for (const Workload &W : workloads()) {
    ir::Module M = lowerWorkload(W, 4);
    opt::cleanupModule(M);
    ir::InterpResult Fast = ir::interpret(M);
    ir::InterpResult Ref = ir::interpretByInstr(M);
    EXPECT_EQ(Fast.Finished, Ref.Finished) << W.Name;
    EXPECT_EQ(Fast.DynInstrs, Ref.DynInstrs) << W.Name;
    EXPECT_EQ(Fast.Checksum, Ref.Checksum) << W.Name;
    EXPECT_EQ(Fast.BlockCounts, Ref.BlockCounts) << W.Name;
    EXPECT_EQ(Fast.EdgeCounts, Ref.EdgeCounts) << W.Name;
    // The budget cutoff truncates at the same block boundary.
    ir::InterpResult FastCut = ir::interpret(M, 10000);
    ir::InterpResult RefCut = ir::interpretByInstr(M, 10000);
    EXPECT_EQ(FastCut.Finished, RefCut.Finished) << W.Name;
    EXPECT_EQ(FastCut.DynInstrs, RefCut.DynInstrs) << W.Name;
    EXPECT_EQ(FastCut.BlockCounts, RefCut.BlockCounts) << W.Name;
  }
}

/// Experiment results are a pure function of the job: running the same jobs
/// sequentially and on a multi-worker pool yields identical cycle counts and
/// checksums (per-compile RNG streams, no cross-compile state).
TEST(ParallelPipeline, ThreadCountInvariance) {
  std::vector<const Workload *> Ws;
  const auto &All = workloads();
  for (size_t I = 0; I < All.size() && I < 5; ++I)
    Ws.push_back(&All[I]);

  std::vector<CompileOptions> Cfgs(2);
  Cfgs[0].Scheduler = sched::SchedulerKind::Balanced;
  Cfgs[1].Scheduler = sched::SchedulerKind::Balanced;
  Cfgs[1].UnrollFactor = 4;
  Cfgs[1].TraceScheduling = true;

  struct Outcome {
    uint64_t Cycles = 0;
    uint64_t Checksum = 0;
  };
  auto RunAt = [&](unsigned Threads) {
    std::vector<Outcome> Out(Ws.size() * Cfgs.size());
    ThreadPool::parallelFor(Threads, Out.size(), [&](size_t I) {
      const Workload &W = *Ws[I % Ws.size()];
      const CompileOptions &O = Cfgs[I / Ws.size()];
      RunResult R = runWorkload(W, O);
      ASSERT_TRUE(R.ok()) << W.Name << ": " << R.Error;
      Out[I] = {R.Sim.Cycles, R.Sim.Checksum};
    });
    return Out;
  };

  std::vector<Outcome> Seq = RunAt(1);
  std::vector<Outcome> Par = RunAt(3);
  ASSERT_EQ(Seq.size(), Par.size());
  for (size_t I = 0; I != Seq.size(); ++I) {
    EXPECT_EQ(Seq[I].Cycles, Par[I].Cycles) << "job " << I;
    EXPECT_EQ(Seq[I].Checksum, Par[I].Checksum) << "job " << I;
  }
}

/// Hammer runCached with concurrent same-key calls: every caller must get
/// the same address (one computation, stable reference), and runAll must
/// return identical pointers whatever the thread count.
TEST(ParallelPipeline, RunCachedIsThreadSafe) {
  const Workload &W = workloads().front();
  CompileOptions Opts;
  Opts.Scheduler = sched::SchedulerKind::Balanced;

  constexpr unsigned NumCalls = 16;
  std::vector<const RunResult *> Ptrs(NumCalls, nullptr);
  ThreadPool::parallelFor(4, NumCalls,
                          [&](size_t I) { Ptrs[I] = &runCached(W, Opts); });
  for (const RunResult *P : Ptrs) {
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(P, Ptrs.front());
    EXPECT_TRUE(P->ok()) << P->Error;
  }

  std::vector<ExperimentJob> Jobs;
  for (const Workload &Each : workloads()) {
    Jobs.push_back({&Each, Opts, {}});
    if (Jobs.size() == 6)
      break;
  }
  std::vector<const RunResult *> Seq = runAll(Jobs, 1);
  std::vector<const RunResult *> Par = runAll(Jobs, 4);
  ASSERT_EQ(Seq.size(), Par.size());
  for (size_t I = 0; I != Seq.size(); ++I) {
    EXPECT_EQ(Seq[I], Par[I]) << "job " << I;
    EXPECT_TRUE(Seq[I]->ok()) << Seq[I]->Error;
  }
}
