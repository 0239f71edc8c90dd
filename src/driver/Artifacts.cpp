//===- driver/Artifacts.cpp - Binary codecs for pipeline results -----------===//

#include "driver/Artifacts.h"

#include <limits>

using namespace bsched;
using namespace bsched::driver;

namespace {

// Decoded enums are range-checked before the static_cast: an enum value a
// newer (or corrupted) file invented must fail the decode, not materialize
// as an out-of-range enumerator that downstream switch statements trust.
template <typename EnumT>
bool decodeEnum(ByteReader &R, EnumT &Out, uint8_t MaxValue) {
  uint8_t V = R.u8();
  if (!R.ok() || V > MaxValue)
    return false;
  Out = static_cast<EnumT>(V);
  return true;
}

//===----------------------------------------------------------------------===//
// Leaf statistics
//===----------------------------------------------------------------------===//

void encodeCacheStats(ByteWriter &W, const sim::CacheStats &S) {
  W.u64(S.Accesses);
  W.u64(S.Misses);
}
bool decodeCacheStats(ByteReader &R, sim::CacheStats &S) {
  S.Accesses = R.u64();
  S.Misses = R.u64();
  return R.ok();
}

void encodeCounts(ByteWriter &W, const sim::InstrCounts &C) {
  W.u64(C.ShortInt);
  W.u64(C.LongInt);
  W.u64(C.ShortFp);
  W.u64(C.LongFp);
  W.u64(C.Loads);
  W.u64(C.Stores);
  W.u64(C.Branches);
  W.u64(C.Spills);
  W.u64(C.Restores);
}
bool decodeCounts(ByteReader &R, sim::InstrCounts &C) {
  C.ShortInt = R.u64();
  C.LongInt = R.u64();
  C.ShortFp = R.u64();
  C.LongFp = R.u64();
  C.Loads = R.u64();
  C.Stores = R.u64();
  C.Branches = R.u64();
  C.Spills = R.u64();
  C.Restores = R.u64();
  return R.ok();
}

void encodeUnroll(ByteWriter &W, const xform::UnrollStats &S) {
  W.i64(S.LoopsConsidered);
  W.i64(S.LoopsUnrolled);
  W.i64(S.LoopsFullyUnrolled);
  W.i64(S.LoopsSkippedBranches);
  W.i64(S.LoopsSkippedSize);
}
bool decodeUnroll(ByteReader &R, xform::UnrollStats &S) {
  S.LoopsConsidered = static_cast<int>(R.i64());
  S.LoopsUnrolled = static_cast<int>(R.i64());
  S.LoopsFullyUnrolled = static_cast<int>(R.i64());
  S.LoopsSkippedBranches = static_cast<int>(R.i64());
  S.LoopsSkippedSize = static_cast<int>(R.i64());
  return R.ok();
}

void encodeLocality(ByteWriter &W, const locality::LocalityStats &S) {
  W.i64(S.LoopsAnalyzed);
  W.i64(S.LoopsPeeled);
  W.i64(S.LoopsUnrolled);
  W.i64(S.TemporalRefs);
  W.i64(S.SpatialRefs);
  W.i64(S.RefsNoInfo);
}
bool decodeLocality(ByteReader &R, locality::LocalityStats &S) {
  S.LoopsAnalyzed = static_cast<int>(R.i64());
  S.LoopsPeeled = static_cast<int>(R.i64());
  S.LoopsUnrolled = static_cast<int>(R.i64());
  S.TemporalRefs = static_cast<int>(R.i64());
  S.SpatialRefs = static_cast<int>(R.i64());
  S.RefsNoInfo = static_cast<int>(R.i64());
  return R.ok();
}

void encodeTrace(ByteWriter &W, const trace::TraceStats &S) {
  W.i64(S.Traces);
  W.i64(S.MultiBlockTraces);
  W.i64(S.LongestTrace);
  W.i64(S.CompensationBlocks);
  W.i64(S.CompensationInstrs);
  // The phase timers (FormNs, ...) are wall-clock measurements, not results:
  // persisting them would give one job different bytes on every run. They
  // decode as 0.
  W.u64(S.Formed.size());
  for (const trace::Trace &T : S.Formed) {
    W.u64(T.size());
    for (int B : T)
      W.i64(B);
  }
}
bool decodeTrace(ByteReader &R, trace::TraceStats &S) {
  S.Traces = static_cast<int>(R.i64());
  S.MultiBlockTraces = static_cast<int>(R.i64());
  S.LongestTrace = static_cast<int>(R.i64());
  S.CompensationBlocks = static_cast<int>(R.i64());
  S.CompensationInstrs = static_cast<int>(R.i64());
  S.FormNs = S.CompactNs = S.WeightsNs = S.CompensationNs = 0;
  uint64_t NumTraces = R.u64();
  if (!R.canHold(NumTraces, 8))
    return false;
  S.Formed.clear();
  S.Formed.reserve(NumTraces);
  for (uint64_t I = 0; I != NumTraces; ++I) {
    uint64_t Len = R.u64();
    if (!R.canHold(Len, 8))
      return false;
    trace::Trace T;
    T.reserve(Len);
    for (uint64_t J = 0; J != Len; ++J)
      T.push_back(static_cast<int>(R.i64()));
    S.Formed.push_back(std::move(T));
  }
  return R.ok();
}

void encodeRegAlloc(ByteWriter &W, const regalloc::RegAllocStats &S) {
  W.u64(S.IntRegsUsed);
  W.u64(S.FpRegsUsed);
  W.i64(S.SpilledVRegs);
  W.i64(S.SpillStores);
  W.i64(S.RestoreLoads);
  W.i64(S.Remats);
  W.str(S.Error);
}
bool decodeRegAlloc(ByteReader &R, regalloc::RegAllocStats &S) {
  S.IntRegsUsed = static_cast<unsigned>(R.u64());
  S.FpRegsUsed = static_cast<unsigned>(R.u64());
  S.SpilledVRegs = static_cast<int>(R.i64());
  S.SpillStores = static_cast<int>(R.i64());
  S.RestoreLoads = static_cast<int>(R.i64());
  S.Remats = static_cast<int>(R.i64());
  S.Error = R.str();
  return R.ok();
}

void encodeCleanup(ByteWriter &W, const opt::CleanupStats &S) {
  W.i64(S.CopiesPropagated);
  W.i64(S.ConstantsFolded);
  W.i64(S.Hoisted);
  W.i64(S.DeadRemoved);
  W.i64(S.Iterations);
  W.i64(S.LivenessFullComputes);
  W.i64(S.LivenessIncrementalUpdates);
  W.i64(S.BlocksSkipped);
}
bool decodeCleanup(ByteReader &R, opt::CleanupStats &S) {
  S.CopiesPropagated = static_cast<int>(R.i64());
  S.ConstantsFolded = static_cast<int>(R.i64());
  S.Hoisted = static_cast<int>(R.i64());
  S.DeadRemoved = static_cast<int>(R.i64());
  S.Iterations = static_cast<int>(R.i64());
  S.LivenessFullComputes = static_cast<int>(R.i64());
  S.LivenessIncrementalUpdates = static_cast<int>(R.i64());
  S.BlocksSkipped = static_cast<int>(R.i64());
  return R.ok();
}

void encodeExact(ByteWriter &W, const sched::exact::ExactStats &S) {
  W.u64(S.BlocksAttempted);
  W.u64(S.BlocksClosed);
  W.u64(S.BlocksTimedOut);
  W.u64(S.BlocksTooLarge);
  W.u64(S.BlocksImproved);
  W.u64(S.FastCycles);
  W.u64(S.ExactCycles);
  W.u64(S.Expanded);
}
bool decodeExact(ByteReader &R, sched::exact::ExactStats &S) {
  S.BlocksAttempted = static_cast<unsigned>(R.u64());
  S.BlocksClosed = static_cast<unsigned>(R.u64());
  S.BlocksTimedOut = static_cast<unsigned>(R.u64());
  S.BlocksTooLarge = static_cast<unsigned>(R.u64());
  S.BlocksImproved = static_cast<unsigned>(R.u64());
  S.FastCycles = R.u64();
  S.ExactCycles = R.u64();
  S.Expanded = R.u64();
  return R.ok();
}

void encodeDiag(ByteWriter &W, const verify::Diagnostic &D) {
  W.u8(static_cast<uint8_t>(D.Kind));
  W.i64(D.Block);
  W.i64(D.Instr);
  W.str(D.Message);
}
bool decodeDiag(ByteReader &R, verify::Diagnostic &D) {
  if (!decodeEnum(R, D.Kind, static_cast<uint8_t>(verify::Check::Locality)))
    return false;
  D.Block = static_cast<int>(R.i64());
  D.Instr = static_cast<int>(R.i64());
  D.Message = R.str();
  return R.ok();
}

//===----------------------------------------------------------------------===//
// IR
//===----------------------------------------------------------------------===//

void encodeMemRef(ByteWriter &W, const ir::MemRef &M) {
  W.i64(M.ArrayId);
  W.b(M.HasForm);
  W.u64(M.Terms.size());
  for (const ir::MemRef::Term &T : M.Terms) {
    W.u32(T.RegId);
    W.i64(T.Coeff);
  }
  W.i64(M.Const);
  W.i64(M.Size);
}
bool decodeMemRef(ByteReader &R, ir::MemRef &M) {
  M.ArrayId = static_cast<int>(R.i64());
  M.HasForm = R.b();
  uint64_t NumTerms = R.u64();
  if (!R.canHold(NumTerms, 12))
    return false;
  M.Terms.clear();
  M.Terms.reserve(NumTerms);
  for (uint64_t I = 0; I != NumTerms; ++I) {
    ir::MemRef::Term T;
    T.RegId = R.u32();
    T.Coeff = R.i64();
    M.Terms.push_back(T);
  }
  M.Const = R.i64();
  M.Size = static_cast<int>(R.i64());
  return R.ok();
}

void encodeInstr(ByteWriter &W, const ir::Instr &I) {
  W.u8(static_cast<uint8_t>(I.Op));
  W.u32(I.Dst.Id);
  W.u32(I.SrcA.Id);
  W.u32(I.SrcB.Id);
  W.u32(I.SrcC.Id);
  W.i64(I.Imm);
  W.b(I.HasImm);
  W.u32(I.Base.Id);
  W.i64(I.Offset);
  encodeMemRef(W, I.Mem);
  W.u8(static_cast<uint8_t>(I.HM));
  W.i64(I.LocalityGroup);
  W.b(I.IsSpill);
  W.b(I.IsRestore);
  W.b(I.IsRemat);
  W.i64(I.Target0);
  W.i64(I.Target1);
}
bool decodeInstr(ByteReader &R, ir::Instr &I) {
  if (!decodeEnum(R, I.Op, static_cast<uint8_t>(ir::Opcode::Ret)))
    return false;
  I.Dst = ir::Reg(R.u32());
  I.SrcA = ir::Reg(R.u32());
  I.SrcB = ir::Reg(R.u32());
  I.SrcC = ir::Reg(R.u32());
  I.Imm = R.i64();
  I.HasImm = R.b();
  I.Base = ir::Reg(R.u32());
  I.Offset = R.i64();
  if (!decodeMemRef(R, I.Mem))
    return false;
  if (!decodeEnum(R, I.HM, static_cast<uint8_t>(ir::HitMiss::Miss)))
    return false;
  I.LocalityGroup = static_cast<int>(R.i64());
  I.IsSpill = R.b();
  I.IsRestore = R.b();
  I.IsRemat = R.b();
  I.Target0 = static_cast<int>(R.i64());
  I.Target1 = static_cast<int>(R.i64());
  return R.ok();
}

void encodeArray(ByteWriter &W, const ir::ArrayInfo &A) {
  W.str(A.Name);
  W.u64(A.Dims.size());
  for (int64_t D : A.Dims)
    W.i64(D);
  W.i64(A.ElemSize);
  W.b(A.RowMajor);
  W.b(A.IsOutput);
  W.u64(A.Base);
}
bool decodeArray(ByteReader &R, ir::ArrayInfo &A) {
  A.Name = R.str();
  uint64_t NumDims = R.u64();
  if (!R.canHold(NumDims, 8))
    return false;
  A.Dims.clear();
  A.Dims.reserve(NumDims);
  for (uint64_t I = 0; I != NumDims; ++I)
    A.Dims.push_back(R.i64());
  A.ElemSize = static_cast<int>(R.i64());
  A.RowMajor = R.b();
  A.IsOutput = R.b();
  A.Base = R.u64();
  return R.ok();
}

} // namespace

//===----------------------------------------------------------------------===//
// Public codecs
//===----------------------------------------------------------------------===//

void driver::encode(ByteWriter &W, const sim::SimResult &R) {
  W.b(R.Finished);
  W.str(R.Error);
  W.u64(R.Checksum);
  W.u64(R.Cycles);
  encodeCounts(W, R.Counts);
  W.u64(R.LoadInterlockCycles);
  W.u64(R.FixedInterlockCycles);
  W.u64(R.ICacheStallCycles);
  W.u64(R.ITlbStallCycles);
  W.u64(R.DTlbStallCycles);
  W.u64(R.BranchPenaltyCycles);
  W.u64(R.MshrStallCycles);
  W.u64(R.WriteBufferStallCycles);
  encodeCacheStats(W, R.L1D);
  encodeCacheStats(W, R.L2);
  encodeCacheStats(W, R.L3);
  encodeCacheStats(W, R.L1I);
  W.u64(R.DTlbMisses);
  W.u64(R.ITlbMisses);
  W.u64(R.BranchMispredicts);
}

bool driver::decode(ByteReader &R, sim::SimResult &Out) {
  Out = sim::SimResult();
  Out.Finished = R.b();
  Out.Error = R.str();
  Out.Checksum = R.u64();
  Out.Cycles = R.u64();
  if (!decodeCounts(R, Out.Counts))
    return false;
  Out.LoadInterlockCycles = R.u64();
  Out.FixedInterlockCycles = R.u64();
  Out.ICacheStallCycles = R.u64();
  Out.ITlbStallCycles = R.u64();
  Out.DTlbStallCycles = R.u64();
  Out.BranchPenaltyCycles = R.u64();
  Out.MshrStallCycles = R.u64();
  Out.WriteBufferStallCycles = R.u64();
  if (!decodeCacheStats(R, Out.L1D) || !decodeCacheStats(R, Out.L2) ||
      !decodeCacheStats(R, Out.L3) || !decodeCacheStats(R, Out.L1I))
    return false;
  Out.DTlbMisses = R.u64();
  Out.ITlbMisses = R.u64();
  Out.BranchMispredicts = R.u64();
  return R.ok();
}

void driver::encode(ByteWriter &W, const ir::InterpResult &R) {
  W.b(R.Finished);
  W.u64(R.DynInstrs);
  W.u64(R.Checksum);
  W.u64(R.BlockCounts.size());
  for (uint64_t C : R.BlockCounts)
    W.u64(C);
  W.u64(R.EdgeCounts.size());
  for (const auto &E : R.EdgeCounts) {
    W.u64(E[0]);
    W.u64(E[1]);
  }
}

bool driver::decode(ByteReader &R, ir::InterpResult &Out) {
  Out = ir::InterpResult();
  Out.Finished = R.b();
  Out.DynInstrs = R.u64();
  Out.Checksum = R.u64();
  uint64_t NumBlocks = R.u64();
  if (!R.canHold(NumBlocks, 8))
    return false;
  Out.BlockCounts.reserve(NumBlocks);
  for (uint64_t I = 0; I != NumBlocks; ++I)
    Out.BlockCounts.push_back(R.u64());
  uint64_t NumEdges = R.u64();
  if (!R.canHold(NumEdges, 16))
    return false;
  Out.EdgeCounts.reserve(NumEdges);
  for (uint64_t I = 0; I != NumEdges; ++I) {
    std::array<uint64_t, 2> E;
    E[0] = R.u64();
    E[1] = R.u64();
    Out.EdgeCounts.push_back(E);
  }
  return R.ok();
}

void driver::encode(ByteWriter &W, const ir::Module &M) {
  W.u64(M.Arrays.size());
  for (const ir::ArrayInfo &A : M.Arrays)
    encodeArray(W, A);
  W.str(M.Fn.Name);
  W.u64(M.Fn.RegClasses.size());
  for (ir::RegClass C : M.Fn.RegClasses)
    W.u8(static_cast<uint8_t>(C));
  W.u64(M.Fn.Blocks.size());
  for (const ir::BasicBlock &B : M.Fn.Blocks) {
    W.i64(B.Id);
    W.i64(B.ExactTripCount);
    W.u64(B.Instrs.size());
    for (const ir::Instr &I : B.Instrs)
      encodeInstr(W, I);
  }
  W.u64(M.MemorySize);
  W.i64(M.SpillArrayId);
}

bool driver::decode(ByteReader &R, ir::Module &Out) {
  Out = ir::Module();
  uint64_t NumArrays = R.u64();
  if (!R.canHold(NumArrays, 8))
    return false;
  Out.Arrays.reserve(NumArrays);
  for (uint64_t I = 0; I != NumArrays; ++I) {
    ir::ArrayInfo A;
    if (!decodeArray(R, A))
      return false;
    Out.Arrays.push_back(std::move(A));
  }
  Out.Fn.Name = R.str();
  uint64_t NumRegs = R.u64();
  if (!R.canHold(NumRegs, 1))
    return false;
  // Function() pre-seeds the physical registers; rebuild the class table
  // from the encoded one wholesale (it covers the physical ids too).
  Out.Fn.RegClasses.clear();
  Out.Fn.RegClasses.reserve(NumRegs);
  for (uint64_t I = 0; I != NumRegs; ++I) {
    ir::RegClass C;
    if (!decodeEnum(R, C, static_cast<uint8_t>(ir::RegClass::Fp)))
      return false;
    Out.Fn.RegClasses.push_back(C);
  }
  uint64_t NumBlocks = R.u64();
  if (!R.canHold(NumBlocks, 16))
    return false;
  Out.Fn.Blocks.clear();
  Out.Fn.Blocks.reserve(NumBlocks);
  for (uint64_t I = 0; I != NumBlocks; ++I) {
    ir::BasicBlock B;
    B.Id = static_cast<int>(R.i64());
    B.ExactTripCount = R.i64();
    uint64_t NumInstrs = R.u64();
    // An Instr encodes to well over 64 bytes; 16 is a safe floor that still
    // rejects absurd counts before the reserve.
    if (!R.canHold(NumInstrs, 16))
      return false;
    B.Instrs.reserve(NumInstrs);
    for (uint64_t J = 0; J != NumInstrs; ++J) {
      ir::Instr Ins;
      if (!decodeInstr(R, Ins))
        return false;
      B.Instrs.push_back(std::move(Ins));
    }
    Out.Fn.Blocks.push_back(std::move(B));
  }
  Out.MemorySize = R.u64();
  Out.SpillArrayId = static_cast<int>(R.i64());
  return R.ok();
}

void driver::encode(ByteWriter &W, const CompileResult &C) {
  encode(W, C.M);
  W.str(C.Error);
  encodeUnroll(W, C.Unroll);
  encodeCleanup(W, C.Cleanup);
  encodeLocality(W, C.Locality);
  encodeTrace(W, C.Trace);
  encodeRegAlloc(W, C.RegAlloc);
  encodeExact(W, C.Exact);
  W.u64(C.VerifyDiags.size());
  for (const verify::Diagnostic &D : C.VerifyDiags)
    encodeDiag(W, D);
}

bool driver::decode(ByteReader &R, CompileResult &Out) {
  Out = CompileResult();
  if (!decode(R, Out.M))
    return false;
  Out.Error = R.str();
  if (!decodeUnroll(R, Out.Unroll) || !decodeCleanup(R, Out.Cleanup) ||
      !decodeLocality(R, Out.Locality) || !decodeTrace(R, Out.Trace) ||
      !decodeRegAlloc(R, Out.RegAlloc) || !decodeExact(R, Out.Exact))
    return false;
  uint64_t NumDiags = R.u64();
  if (!R.canHold(NumDiags, 16))
    return false;
  Out.VerifyDiags.reserve(NumDiags);
  for (uint64_t I = 0; I != NumDiags; ++I) {
    verify::Diagnostic D;
    if (!decodeDiag(R, D))
      return false;
    Out.VerifyDiags.push_back(std::move(D));
  }
  return R.ok();
}

void driver::encode(ByteWriter &W, const RunResult &R) {
  W.str(R.Error);
  encode(W, R.Sim);
  encodeUnroll(W, R.Unroll);
  encodeLocality(W, R.Locality);
  encodeTrace(W, R.Trace);
  encodeRegAlloc(W, R.RegAlloc);
}

bool driver::decode(ByteReader &R, RunResult &Out) {
  Out = RunResult();
  Out.Error = R.str();
  if (!decode(R, Out.Sim))
    return false;
  if (!decodeUnroll(R, Out.Unroll) || !decodeLocality(R, Out.Locality) ||
      !decodeTrace(R, Out.Trace) || !decodeRegAlloc(R, Out.RegAlloc))
    return false;
  return R.ok();
}
