//===- tests/serialize_test.cpp - Artifact serialization round-trips -------===//
//
// The persistent artifact store is only safe if deserialization is an exact
// inverse of serialization. This file pins that down at three levels:
//
//  * ByteWriter/ByteReader primitives: every scalar and string round-trips
//    bit-exact, truncated input fails sticky, and length prefixes are
//    validated against the remaining bytes before any allocation.
//  * Whole-artifact codecs: fully-populated SimResult / InterpResult /
//    Module / CompileResult / RunResult values survive encode→decode with
//    every field equal, and the decoder consumes exactly the bytes the
//    encoder produced.
//  * Golden reproduction: a CompileResult decoded from its encoding hashes
//    to the same checked-in golden schedule hash as the live compile, and a
//    decoded SimResult reproduces the pinned golden sim-stats hash — the
//    disk tier can never ship different bytes than a recompute.
//
//===----------------------------------------------------------------------===//

#include "TestConfigs.h"

#include "driver/Artifacts.h"
#include "driver/Experiment.h"
#include "ir/Interp.h"
#include "support/Serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace bsched;
using namespace bsched::driver;

namespace {

//===----------------------------------------------------------------------===//
// Primitives
//===----------------------------------------------------------------------===//

TEST(ByteStream, PrimitivesRoundTrip) {
  ByteWriter W;
  W.u8(0);
  W.u8(0xff);
  W.u32(0);
  W.u32(0xdeadbeefu);
  W.u64(0);
  W.u64(~0ull);
  W.i64(-1);
  W.i64(INT64_MIN);
  W.i64(INT64_MAX);
  W.b(true);
  W.b(false);
  W.d(0.0);
  W.d(-1.5e300);
  W.d(3.141592653589793);
  W.str("");
  W.str(std::string("nul\0byte", 8));
  W.str("plain");

  ByteReader R(W.buffer());
  EXPECT_EQ(R.u8(), 0u);
  EXPECT_EQ(R.u8(), 0xffu);
  EXPECT_EQ(R.u32(), 0u);
  EXPECT_EQ(R.u32(), 0xdeadbeefu);
  EXPECT_EQ(R.u64(), 0u);
  EXPECT_EQ(R.u64(), ~0ull);
  EXPECT_EQ(R.i64(), -1);
  EXPECT_EQ(R.i64(), INT64_MIN);
  EXPECT_EQ(R.i64(), INT64_MAX);
  EXPECT_TRUE(R.b());
  EXPECT_FALSE(R.b());
  EXPECT_EQ(R.d(), 0.0);
  EXPECT_EQ(R.d(), -1.5e300);
  EXPECT_EQ(R.d(), 3.141592653589793);
  EXPECT_EQ(R.str(), "");
  EXPECT_EQ(R.str(), std::string("nul\0byte", 8));
  EXPECT_EQ(R.str(), "plain");
  EXPECT_TRUE(R.atEnd());
  EXPECT_TRUE(R.ok());
}

TEST(ByteStream, TruncationFailsSticky) {
  ByteWriter W;
  W.u64(42);
  std::string Buf = W.buffer().substr(0, 5); // cut mid-word
  ByteReader R(Buf);
  EXPECT_EQ(R.u64(), 0u); // short read yields the zero value...
  EXPECT_FALSE(R.ok());   // ...and trips the failed state.
  // Sticky: every later read also fails, and remaining() was zeroed.
  EXPECT_EQ(R.u8(), 0u);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(ByteStream, StringLengthValidatedBeforeAllocation) {
  // A length prefix claiming far more bytes than the buffer holds must fail
  // cleanly (no attempt to allocate or read past the end).
  ByteWriter W;
  W.u64(0x7fffffffffffull); // str length prefix, no payload
  ByteReader R(W.buffer());
  EXPECT_EQ(R.str(), "");
  EXPECT_FALSE(R.ok());
}

TEST(ByteStream, CanHoldRejectsAbsurdCounts) {
  ByteWriter W;
  W.u32(3);
  ByteReader R(W.buffer());
  uint32_t N = R.u32();
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(R.canHold(N, 8)); // 3 elements x 8 bytes > 0 remaining
  EXPECT_FALSE(R.ok());          // canHold failure is sticky too
  ByteReader R2(W.buffer());
  EXPECT_TRUE(R2.canHold(0, 1024)); // zero elements always fit
}

//===----------------------------------------------------------------------===//
// Whole-artifact codecs
//===----------------------------------------------------------------------===//

sim::SimResult denseSimResult() {
  sim::SimResult S;
  S.Finished = true;
  S.Error = "not an error, just bytes";
  S.Checksum = 0x0123456789abcdefull;
  S.Cycles = 1234567;
  S.Counts.ShortInt = 11;
  S.Counts.LongInt = 12;
  S.Counts.ShortFp = 13;
  S.Counts.LongFp = 14;
  S.Counts.Loads = 15;
  S.Counts.Stores = 16;
  S.Counts.Branches = 17;
  S.Counts.Spills = 18;
  S.Counts.Restores = 19;
  S.LoadInterlockCycles = 21;
  S.FixedInterlockCycles = 22;
  S.ICacheStallCycles = 23;
  S.ITlbStallCycles = 24;
  S.DTlbStallCycles = 25;
  S.BranchPenaltyCycles = 26;
  S.MshrStallCycles = 27;
  S.WriteBufferStallCycles = 28;
  S.L1D = {31, 32};
  S.L2 = {33, 34};
  S.L3 = {35, 36};
  S.L1I = {37, 38};
  S.DTlbMisses = 41;
  S.ITlbMisses = 42;
  S.BranchMispredicts = 43;
  return S;
}

TEST(ArtifactRoundTrip, SimResultEveryField) {
  sim::SimResult S = denseSimResult();
  ByteWriter W;
  encode(W, S);
  ByteReader R(W.buffer());
  sim::SimResult D;
  D.Cycles = 777; // decoder must reset, not merge
  ASSERT_TRUE(decode(R, D));
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(D.Finished, S.Finished);
  EXPECT_EQ(D.Error, S.Error);
  EXPECT_EQ(D.Checksum, S.Checksum);
  EXPECT_EQ(D.Cycles, S.Cycles);
  EXPECT_EQ(D.Counts.ShortInt, S.Counts.ShortInt);
  EXPECT_EQ(D.Counts.LongInt, S.Counts.LongInt);
  EXPECT_EQ(D.Counts.ShortFp, S.Counts.ShortFp);
  EXPECT_EQ(D.Counts.LongFp, S.Counts.LongFp);
  EXPECT_EQ(D.Counts.Loads, S.Counts.Loads);
  EXPECT_EQ(D.Counts.Stores, S.Counts.Stores);
  EXPECT_EQ(D.Counts.Branches, S.Counts.Branches);
  EXPECT_EQ(D.Counts.Spills, S.Counts.Spills);
  EXPECT_EQ(D.Counts.Restores, S.Counts.Restores);
  EXPECT_EQ(D.LoadInterlockCycles, S.LoadInterlockCycles);
  EXPECT_EQ(D.FixedInterlockCycles, S.FixedInterlockCycles);
  EXPECT_EQ(D.ICacheStallCycles, S.ICacheStallCycles);
  EXPECT_EQ(D.ITlbStallCycles, S.ITlbStallCycles);
  EXPECT_EQ(D.DTlbStallCycles, S.DTlbStallCycles);
  EXPECT_EQ(D.BranchPenaltyCycles, S.BranchPenaltyCycles);
  EXPECT_EQ(D.MshrStallCycles, S.MshrStallCycles);
  EXPECT_EQ(D.WriteBufferStallCycles, S.WriteBufferStallCycles);
  EXPECT_EQ(D.L1D.Accesses, S.L1D.Accesses);
  EXPECT_EQ(D.L1D.Misses, S.L1D.Misses);
  EXPECT_EQ(D.L2.Accesses, S.L2.Accesses);
  EXPECT_EQ(D.L2.Misses, S.L2.Misses);
  EXPECT_EQ(D.L3.Accesses, S.L3.Accesses);
  EXPECT_EQ(D.L3.Misses, S.L3.Misses);
  EXPECT_EQ(D.L1I.Accesses, S.L1I.Accesses);
  EXPECT_EQ(D.L1I.Misses, S.L1I.Misses);
  EXPECT_EQ(D.DTlbMisses, S.DTlbMisses);
  EXPECT_EQ(D.ITlbMisses, S.ITlbMisses);
  EXPECT_EQ(D.BranchMispredicts, S.BranchMispredicts);
}

TEST(ArtifactRoundTrip, InterpResultEveryField) {
  ir::InterpResult P;
  P.Finished = true;
  P.DynInstrs = 987654321;
  P.Checksum = 0xfeedfacecafebeefull;
  P.BlockCounts = {0, 3, 1u << 30, 7};
  P.EdgeCounts.push_back({0, 17});
  P.EdgeCounts.push_back({3, 4096});
  ByteWriter W;
  encode(W, P);
  ByteReader R(W.buffer());
  ir::InterpResult D;
  ASSERT_TRUE(decode(R, D));
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(D.Finished, P.Finished);
  EXPECT_EQ(D.DynInstrs, P.DynInstrs);
  EXPECT_EQ(D.Checksum, P.Checksum);
  EXPECT_EQ(D.BlockCounts, P.BlockCounts);
  EXPECT_EQ(D.EdgeCounts, P.EdgeCounts);
}

TEST(ArtifactRoundTrip, CompileResultEveryWorkload) {
  // Full pipeline (regalloc + verify on) so module text, per-pass stats,
  // and diagnostics are all populated; trace scheduling exercises the
  // Formed / compensation payloads.
  std::vector<CompileOptions> Configs(2);
  Configs[1].UnrollFactor = 4;
  Configs[1].TraceScheduling = true;
  for (const CompileOptions &Opts : Configs) {
    for (const Workload &Wl : workloads()) {
      lang::Program P = parseWorkload(Wl);
      CompileResult C = compileProgram(P, Opts);
      ASSERT_TRUE(C.ok()) << Wl.Name << ": " << C.Error;

      ByteWriter W;
      encode(W, C);
      ByteReader R(W.buffer());
      CompileResult D;
      ASSERT_TRUE(decode(R, D)) << Wl.Name << " [" << Opts.tag() << "]";
      EXPECT_TRUE(R.atEnd()) << Wl.Name;

      EXPECT_EQ(D.Error, C.Error);
      EXPECT_EQ(ir::printFunction(D.M.Fn), ir::printFunction(C.M.Fn))
          << Wl.Name << " [" << Opts.tag() << "]: module text changed";
      EXPECT_EQ(D.M.MemorySize, C.M.MemorySize);
      EXPECT_EQ(D.M.SpillArrayId, C.M.SpillArrayId);
      EXPECT_EQ(D.M.Arrays.size(), C.M.Arrays.size());
      EXPECT_EQ(D.M.Fn.RegClasses, C.M.Fn.RegClasses);
      EXPECT_EQ(D.Unroll.LoopsUnrolled, C.Unroll.LoopsUnrolled);
      EXPECT_EQ(D.Cleanup.DeadRemoved, C.Cleanup.DeadRemoved);
      EXPECT_EQ(D.Trace.Traces, C.Trace.Traces);
      EXPECT_EQ(D.Trace.CompensationInstrs, C.Trace.CompensationInstrs);
      EXPECT_EQ(D.Trace.Formed, C.Trace.Formed);
      EXPECT_EQ(D.RegAlloc.SpilledVRegs, C.RegAlloc.SpilledVRegs);
      EXPECT_EQ(D.RegAlloc.IntRegsUsed, C.RegAlloc.IntRegsUsed);
      EXPECT_EQ(D.Exact.BlocksAttempted, C.Exact.BlocksAttempted);
      EXPECT_EQ(D.VerifyDiags.size(), C.VerifyDiags.size());

      // The decoded module is a live module: the interpreter runs it to the
      // same checksum as the original.
      ir::InterpResult IC = ir::interpret(C.M);
      ir::InterpResult ID = ir::interpret(D.M);
      EXPECT_EQ(ID.Finished, IC.Finished) << Wl.Name;
      EXPECT_EQ(ID.Checksum, IC.Checksum) << Wl.Name;
      EXPECT_EQ(ID.DynInstrs, IC.DynInstrs) << Wl.Name;
    }
  }
}

TEST(ArtifactRoundTrip, RunResultEndToEnd) {
  const Workload &Wl = workloads().front();
  CompileOptions Opts;
  Opts.UnrollFactor = 4;
  RunResult R = runWorkload(Wl, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;

  ByteWriter W;
  encode(W, R);
  ByteReader Rd(W.buffer());
  RunResult D;
  ASSERT_TRUE(decode(Rd, D));
  EXPECT_TRUE(Rd.atEnd());
  EXPECT_EQ(D.Error, R.Error);
  EXPECT_EQ(D.Sim.Cycles, R.Sim.Cycles);
  EXPECT_EQ(D.Sim.Checksum, R.Sim.Checksum);
  EXPECT_EQ(D.Sim.LoadInterlockCycles, R.Sim.LoadInterlockCycles);
  EXPECT_EQ(D.Unroll.LoopsUnrolled, R.Unroll.LoopsUnrolled);
  EXPECT_EQ(D.RegAlloc.SpillStores, R.RegAlloc.SpillStores);
  EXPECT_EQ(D.Trace.Traces, R.Trace.Traces);
}

/// The same trace-scheduled job encodes to the same bytes on every run: the
/// trace phase timers are wall-clock measurements, so they stay out of the
/// artifact and decode as 0.
TEST(ArtifactRoundTrip, TraceScheduledRunEncodesIdentically) {
  const Workload &Wl = workloads().front();
  CompileOptions Opts;
  Opts.UnrollFactor = 4;
  Opts.TraceScheduling = true;
  RunResult A = runWorkload(Wl, Opts);
  RunResult B = runWorkload(Wl, Opts);
  ASSERT_TRUE(A.ok()) << A.Error;
  ASSERT_TRUE(B.ok()) << B.Error;
  ASSERT_GT(A.Trace.Traces, 0);

  ByteWriter WA, WB;
  encode(WA, A);
  encode(WB, B);
  EXPECT_TRUE(WA.buffer() == WB.buffer())
      << "one trace-scheduled job encoded to different bytes on two runs";

  ByteReader Rd(WA.buffer());
  RunResult D;
  ASSERT_TRUE(decode(Rd, D));
  EXPECT_EQ(D.Trace.FormNs, 0u);
  EXPECT_EQ(D.Trace.CompactNs, 0u);
  EXPECT_EQ(D.Trace.WeightsNs, 0u);
  EXPECT_EQ(D.Trace.CompensationNs, 0u);
  EXPECT_EQ(D.Trace.Formed, A.Trace.Formed);
}

TEST(ArtifactRoundTrip, TruncatedModuleFailsCleanly) {
  const Workload &Wl = workloads().front();
  lang::Program P = parseWorkload(Wl);
  CompileResult C = compileProgram(P, {});
  ASSERT_TRUE(C.ok());
  ByteWriter W;
  encode(W, C);
  const std::string &Full = W.buffer();
  // Every strict prefix must fail (or, for the empty-tail corner, at least
  // never produce a module that differs silently) — step through a spread
  // of cut points rather than all of them to keep the test fast.
  for (size_t Cut = 0; Cut < Full.size(); Cut += 97) {
    std::string Buf = Full.substr(0, Cut);
    ByteReader R(Buf);
    CompileResult D;
    EXPECT_FALSE(decode(R, D) && R.atEnd()) << "cut at " << Cut;
  }
}

//===----------------------------------------------------------------------===//
// Golden reproduction through the codec
//===----------------------------------------------------------------------===//

uint64_t strFnv(const std::string &S) { return fnv1a(S); }

/// Mirrors golden_schedule_test's configuration list; the golden hashes are
/// keyed by CompileOptions::tag(), so the decoded artifacts must reproduce
/// them under exactly these configurations.
std::vector<CompileOptions> goldenConfigs() {
  std::vector<CompileOptions> Cs;
  auto Base = [] {
    CompileOptions O;
    O.StopBeforeRegAlloc = true;
    O.VerifyPasses = false;
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

struct GoldenScheduleRow {
  const char *Config;
  const char *Workload;
  uint64_t Hash;
};

const GoldenScheduleRow GoldenSchedules[] = {
#include "golden_schedules.inc"
    {"", "", 0},
};

uint64_t findGoldenSchedule(const std::string &Config,
                            const std::string &Workload) {
  for (const GoldenScheduleRow &R : GoldenSchedules)
    if (Config == R.Config && Workload == R.Workload)
      return R.Hash;
  return 0;
}

TEST(GoldenReproduction, DecodedCompileResultsMatchScheduleGoldens) {
  size_t Checked = 0;
  for (const CompileOptions &Opts : goldenConfigs()) {
    for (const Workload &Wl : workloads()) {
      lang::Program P = parseWorkload(Wl);
      CompileResult C = compileProgram(P, Opts);
      ASSERT_TRUE(C.ok()) << Wl.Name << ": " << C.Error;

      ByteWriter W;
      encode(W, C);
      ByteReader R(W.buffer());
      CompileResult D;
      ASSERT_TRUE(decode(R, D)) << Wl.Name << " [" << Opts.tag() << "]";

      uint64_t Golden = findGoldenSchedule(Opts.tag(), Wl.Name);
      ASSERT_NE(Golden, 0u)
          << Wl.Name << " [" << Opts.tag() << "]: no golden entry";
      EXPECT_EQ(strFnv(ir::printFunction(D.M.Fn)), Golden)
          << Wl.Name << " [" << Opts.tag()
          << "]: decoded artifact hashes differently than the live compile";
      ++Checked;
    }
  }
  // 7 configs x 17 workloads: the full pinned matrix went through the codec.
  EXPECT_EQ(Checked, goldenConfigs().size() * workloads().size());
}

/// Identical to golden_sim_test's dumpResult — the golden sim hashes are
/// over this exact string.
std::string dumpResult(const sim::SimResult &R) {
  std::string S;
  auto Add = [&S](uint64_t V) {
    S += std::to_string(V);
    S += ',';
  };
  Add(R.Finished ? 1 : 0);
  Add(R.Checksum);
  Add(R.Cycles);
  Add(R.Counts.ShortInt);
  Add(R.Counts.LongInt);
  Add(R.Counts.ShortFp);
  Add(R.Counts.LongFp);
  Add(R.Counts.Loads);
  Add(R.Counts.Stores);
  Add(R.Counts.Branches);
  Add(R.Counts.Spills);
  Add(R.Counts.Restores);
  Add(R.LoadInterlockCycles);
  Add(R.FixedInterlockCycles);
  Add(R.ICacheStallCycles);
  Add(R.ITlbStallCycles);
  Add(R.DTlbStallCycles);
  Add(R.BranchPenaltyCycles);
  Add(R.MshrStallCycles);
  Add(R.WriteBufferStallCycles);
  Add(R.L1D.Accesses);
  Add(R.L1D.Misses);
  Add(R.L2.Accesses);
  Add(R.L2.Misses);
  Add(R.L3.Accesses);
  Add(R.L3.Misses);
  Add(R.L1I.Accesses);
  Add(R.L1I.Misses);
  Add(R.DTlbMisses);
  Add(R.ITlbMisses);
  Add(R.BranchMispredicts);
  return S;
}

struct GoldenSimRow {
  const char *Machine;
  const char *Workload;
  uint64_t Hash;
};

const GoldenSimRow GoldenSims[] = {
#include "golden_sim_stats.inc"
    {"", "", 0},
};

uint64_t findGoldenSim(const std::string &Machine,
                       const std::string &Workload) {
  for (const GoldenSimRow &R : GoldenSims)
    if (Machine == R.Machine && Workload == R.Workload)
      return R.Hash;
  return 0;
}

TEST(GoldenReproduction, DecodedSimResultsMatchSimGoldens) {
  CompileOptions Opts;
  Opts.UnrollFactor = 4;
  Opts.VerifyPasses = false;
  std::vector<test::MachinePoint> Machines = test::goldenSimMachines();
  size_t Checked = 0;
  for (const Workload &Wl : workloads()) {
    lang::Program P = parseWorkload(Wl);
    CompileResult C = compileProgram(P, Opts);
    ASSERT_TRUE(C.ok()) << Wl.Name << ": " << C.Error;
    for (const test::MachinePoint &M : Machines) {
      sim::SimResult S = sim::simulate(C.M, M.Config);
      ASSERT_TRUE(S.ok()) << Wl.Name << " [" << M.Tag << "]: " << S.Error;

      ByteWriter W;
      encode(W, S);
      ByteReader R(W.buffer());
      sim::SimResult D;
      ASSERT_TRUE(decode(R, D)) << Wl.Name << " [" << M.Tag << "]";
      EXPECT_TRUE(R.atEnd());

      uint64_t Golden = findGoldenSim(M.Tag, Wl.Name);
      ASSERT_NE(Golden, 0u)
          << Wl.Name << " [" << M.Tag << "]: no golden entry";
      EXPECT_EQ(strFnv(dumpResult(D)), Golden)
          << Wl.Name << " [" << M.Tag
          << "]: decoded sim stats hash differently than the live run";
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, workloads().size() * Machines.size());
}

} // namespace
