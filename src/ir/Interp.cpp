//===- ir/Interp.cpp - Functional IR interpreter --------------------------===//

#include "ir/Interp.h"

#include "support/Serialize.h"

#include <cstring>

using namespace bsched;
using namespace bsched::ir;

//===----------------------------------------------------------------------===//
// ExecState
//===----------------------------------------------------------------------===//

ExecState::ExecState(const Module &M)
    : Regs(M.Fn.numRegs(), 0), Memory(M.MemorySize, 0) {
  assert(M.MemorySize != 0 && "module must be laid out before execution");
}

double ExecState::readFp(Reg R) const {
  double V;
  std::memcpy(&V, &Regs[R.Id], sizeof(double));
  return V;
}

void ExecState::writeFp(Reg R, double V) {
  std::memcpy(&Regs[R.Id], &V, sizeof(double));
}

uint64_t ExecState::loadWord(uint64_t Addr) const {
  // Non-faulting loads: trace scheduling may hoist a load above the branch
  // guarding it (section 3.2 permits speculating instructions that do not
  // write memory and whose destination is dead off-trace). On the
  // misspeculated path the address can be arbitrary, so out-of-range reads
  // return deterministic garbage instead of faulting — the value is dead by
  // the speculation-safety rule. Both the interpreter and the simulator use
  // this routine, so checksums stay comparable.
  if (Addr + 8 > Memory.size() || Addr + 8 < Addr)
    return 0xdeadbeefdeadbeefull ^ Addr;
  uint64_t V;
  std::memcpy(&V, &Memory[Addr], 8);
  return V;
}

void ExecState::storeWord(uint64_t Addr, uint64_t V) {
  assert(Addr + 8 <= Memory.size() && "store out of bounds");
  std::memcpy(&Memory[Addr], &V, 8);
}

uint64_t ExecState::outputChecksum(const Module &M) const {
  Fnv1a H;
  for (const ArrayInfo &A : M.Arrays)
    if (A.IsOutput)
      H.bytes(Memory.data() + A.Base, static_cast<size_t>(A.sizeBytes()));
  return H.get();
}

//===----------------------------------------------------------------------===//
// Instruction execution
//===----------------------------------------------------------------------===//

void ir::executeInstr(ExecState &S, const Instr &I) {
  auto B = [&]() -> int64_t {
    return I.SrcB.isValid() ? S.readInt(I.SrcB) : I.Imm;
  };
  switch (I.Op) {
  case Opcode::LdI:
    S.writeInt(I.Dst, I.Imm);
    break;
  case Opcode::FLdI:
    S.writeFp(I.Dst, I.fimm());
    break;
  case Opcode::Mov:
    S.writeInt(I.Dst, S.readInt(I.SrcA));
    break;
  case Opcode::FMov:
    S.writeFp(I.Dst, S.readFp(I.SrcA));
    break;
  case Opcode::ItoF:
    S.writeFp(I.Dst, static_cast<double>(S.readInt(I.SrcA)));
    break;
  case Opcode::FtoI:
    S.writeInt(I.Dst, static_cast<int64_t>(S.readFp(I.SrcA)));
    break;
  case Opcode::IAdd:
    S.writeInt(I.Dst, S.readInt(I.SrcA) + B());
    break;
  case Opcode::ISub:
    S.writeInt(I.Dst, S.readInt(I.SrcA) - B());
    break;
  case Opcode::IMul:
    S.writeInt(I.Dst, S.readInt(I.SrcA) * B());
    break;
  case Opcode::Sll:
    S.writeInt(I.Dst, S.readInt(I.SrcA) << (B() & 63));
    break;
  case Opcode::Srl:
    S.writeInt(I.Dst,
               static_cast<int64_t>(
                   static_cast<uint64_t>(S.readInt(I.SrcA)) >> (B() & 63)));
    break;
  case Opcode::And:
    S.writeInt(I.Dst, S.readInt(I.SrcA) & B());
    break;
  case Opcode::Or:
    S.writeInt(I.Dst, S.readInt(I.SrcA) | B());
    break;
  case Opcode::Xor:
    S.writeInt(I.Dst, S.readInt(I.SrcA) ^ B());
    break;
  case Opcode::CmpEq:
    S.writeInt(I.Dst, S.readInt(I.SrcA) == B() ? 1 : 0);
    break;
  case Opcode::CmpLt:
    S.writeInt(I.Dst, S.readInt(I.SrcA) < B() ? 1 : 0);
    break;
  case Opcode::CmpLe:
    S.writeInt(I.Dst, S.readInt(I.SrcA) <= B() ? 1 : 0);
    break;
  case Opcode::FAdd:
    S.writeFp(I.Dst, S.readFp(I.SrcA) + S.readFp(I.SrcB));
    break;
  case Opcode::FSub:
    S.writeFp(I.Dst, S.readFp(I.SrcA) - S.readFp(I.SrcB));
    break;
  case Opcode::FMul:
    S.writeFp(I.Dst, S.readFp(I.SrcA) * S.readFp(I.SrcB));
    break;
  case Opcode::FDiv:
    S.writeFp(I.Dst, S.readFp(I.SrcA) / S.readFp(I.SrcB));
    break;
  case Opcode::FCmpEq:
    S.writeInt(I.Dst, S.readFp(I.SrcA) == S.readFp(I.SrcB) ? 1 : 0);
    break;
  case Opcode::FCmpLt:
    S.writeInt(I.Dst, S.readFp(I.SrcA) < S.readFp(I.SrcB) ? 1 : 0);
    break;
  case Opcode::FCmpLe:
    S.writeInt(I.Dst, S.readFp(I.SrcA) <= S.readFp(I.SrcB) ? 1 : 0);
    break;
  case Opcode::CMov:
    if (S.readInt(I.SrcA) != 0)
      S.writeInt(I.Dst, S.readInt(I.SrcB));
    break;
  case Opcode::FCMov:
    if (S.readInt(I.SrcA) != 0)
      S.writeFp(I.Dst, S.readFp(I.SrcB));
    break;
  case Opcode::Load:
    S.writeInt(I.Dst, static_cast<int64_t>(S.loadWord(
                          S.effectiveAddress(I))));
    break;
  case Opcode::FLoad: {
    uint64_t Bits = S.loadWord(S.effectiveAddress(I));
    double V;
    std::memcpy(&V, &Bits, 8);
    S.writeFp(I.Dst, V);
    break;
  }
  case Opcode::Store:
    S.storeWord(S.effectiveAddress(I),
                static_cast<uint64_t>(S.readInt(I.SrcA)));
    break;
  case Opcode::FStore: {
    double V = S.readFp(I.SrcA);
    uint64_t Bits;
    std::memcpy(&Bits, &V, 8);
    S.storeWord(S.effectiveAddress(I), Bits);
    break;
  }
  case Opcode::Br:
  case Opcode::Jmp:
  case Opcode::Ret:
    assert(false && "terminators are handled by the execution loop");
    break;
  }
}

//===----------------------------------------------------------------------===//
// Interpreter loop
//===----------------------------------------------------------------------===//

InterpResult ir::interpretByInstr(const Module &M, uint64_t MaxInstrs) {
  const Function &F = M.Fn;
  ExecState S(M);
  InterpResult R;
  R.BlockCounts.assign(F.Blocks.size(), 0);
  R.EdgeCounts.assign(F.Blocks.size(), {0, 0});

  int Block = 0;
  while (true) {
    const BasicBlock &BB = F.Blocks[Block];
    ++R.BlockCounts[Block];
    if (R.DynInstrs + BB.Instrs.size() > MaxInstrs)
      return R;
    R.DynInstrs += BB.Instrs.size();
    for (size_t K = 0; K + 1 < BB.Instrs.size(); ++K)
      executeInstr(S, BB.Instrs[K]);
    const Instr &T = BB.terminator();
    switch (T.Op) {
    case Opcode::Br:
      if (S.readInt(T.SrcA) != 0) {
        ++R.EdgeCounts[Block][0];
        Block = T.Target0;
      } else {
        ++R.EdgeCounts[Block][1];
        Block = T.Target1;
      }
      break;
    case Opcode::Jmp:
      ++R.EdgeCounts[Block][0];
      Block = T.Target0;
      break;
    case Opcode::Ret:
      R.Finished = true;
      R.Checksum = S.outputChecksum(M);
      return R;
    default:
      assert(false && "bad terminator");
      return R;
    }
  }
}

//===----------------------------------------------------------------------===//
// Predecoded interpreter loop
//===----------------------------------------------------------------------===//
//
// Instr is heavy — memory instructions carry a symbolic address-term vector,
// so a block's instruction array is neither compact nor contiguous in the
// fields the executor touches. The profiling interpreter runs millions of
// dynamic instructions per compile (it is the dominant cost of a trace-
// scheduled compile), so interpret() first flattens the function into one
// compact op stream — non-terminators via the shared predecoder
// (decodeMicro in Interp.h, also used by the fast timing simulator), plus
// terminator ops embedded in the same stream so the run loop is a single
// dispatch with no per-block outer loop. The loop keeps restrict-qualified
// pointers to the register file, memory image, and profile counters (all
// separate allocations), so the compiler keeps them in registers across
// stores. Results are bit-identical to interpretByInstr().

namespace {

/// One op of the flat profiling stream: the MicroOp payload with registers
/// as raw ids, or an embedded terminator. For PkBr, A is the condition
/// register and Dst/B the taken/fallthrough block ids; for PkJmp, Dst is
/// the target block id.
struct ProfOp {
  uint8_t K; ///< MicroKind value, or PkBr/PkJmp/PkRet.
  uint32_t Dst = 0, A = 0, B = 0;
  int64_t Imm = 0;
};

constexpr uint8_t PkBr = 41, PkJmp = 42, PkRet = 43;
static_assert(static_cast<uint8_t>(MicroKind::FStore) + 1 == PkBr,
              "terminator op codes must extend the MicroKind space");

/// Per-block entry bookkeeping for the flat stream.
struct ProfBlock {
  uint32_t Pc = 0;        ///< first op of the block in the stream.
  uint64_t NumInstrs = 0; ///< dynamic instructions incl. the terminator.
};

} // namespace

MicroOp ir::decodeMicro(const Instr &I) {
  MicroOp O;
  O.Dst = I.Dst;
  O.A = I.SrcA;
  O.B = I.SrcB;
  O.Imm = I.Imm;
  // Reg-or-literal ops: pick the form once, mirroring executeInstr's B().
  bool RegB = I.SrcB.isValid();
  switch (I.Op) {
  case Opcode::LdI: O.K = MicroKind::LdI; break;
  case Opcode::FLdI: O.K = MicroKind::FLdI; break; // Imm is the bit pattern
  case Opcode::Mov: O.K = MicroKind::Mov; break;
  case Opcode::FMov: O.K = MicroKind::FMov; break;
  case Opcode::ItoF: O.K = MicroKind::ItoF; break;
  case Opcode::FtoI: O.K = MicroKind::FtoI; break;
  case Opcode::IAdd: O.K = RegB ? MicroKind::IAddR : MicroKind::IAddI; break;
  case Opcode::ISub: O.K = RegB ? MicroKind::ISubR : MicroKind::ISubI; break;
  case Opcode::IMul: O.K = RegB ? MicroKind::IMulR : MicroKind::IMulI; break;
  case Opcode::Sll: O.K = RegB ? MicroKind::SllR : MicroKind::SllI; break;
  case Opcode::Srl: O.K = RegB ? MicroKind::SrlR : MicroKind::SrlI; break;
  case Opcode::And: O.K = RegB ? MicroKind::AndR : MicroKind::AndI; break;
  case Opcode::Or: O.K = RegB ? MicroKind::OrR : MicroKind::OrI; break;
  case Opcode::Xor: O.K = RegB ? MicroKind::XorR : MicroKind::XorI; break;
  case Opcode::CmpEq:
    O.K = RegB ? MicroKind::CmpEqR : MicroKind::CmpEqI;
    break;
  case Opcode::CmpLt:
    O.K = RegB ? MicroKind::CmpLtR : MicroKind::CmpLtI;
    break;
  case Opcode::CmpLe:
    O.K = RegB ? MicroKind::CmpLeR : MicroKind::CmpLeI;
    break;
  case Opcode::FAdd: O.K = MicroKind::FAdd; break;
  case Opcode::FSub: O.K = MicroKind::FSub; break;
  case Opcode::FMul: O.K = MicroKind::FMul; break;
  case Opcode::FDiv: O.K = MicroKind::FDiv; break;
  case Opcode::FCmpEq: O.K = MicroKind::FCmpEq; break;
  case Opcode::FCmpLt: O.K = MicroKind::FCmpLt; break;
  case Opcode::FCmpLe: O.K = MicroKind::FCmpLe; break;
  case Opcode::CMov: O.K = MicroKind::CMov; break;
  case Opcode::FCMov: O.K = MicroKind::FCMov; break;
  case Opcode::Load:
  case Opcode::FLoad:
  case Opcode::Store:
  case Opcode::FStore:
    O.K = I.Op == Opcode::Load    ? MicroKind::Load
          : I.Op == Opcode::FLoad ? MicroKind::FLoad
          : I.Op == Opcode::Store ? MicroKind::Store
                                  : MicroKind::FStore;
    O.A = I.Op == Opcode::Store || I.Op == Opcode::FStore ? I.SrcA : Reg();
    O.B = I.Base;
    O.Imm = I.Offset;
    break;
  case Opcode::Br:
  case Opcode::Jmp:
  case Opcode::Ret:
    assert(false && "terminators are not predecoded as micro-ops");
    break;
  }
  return O;
}

InterpResult ir::interpret(const Module &M, uint64_t MaxInstrs) {
  const Function &F = M.Fn;

  std::vector<ProfOp> Ops;
  std::vector<ProfBlock> Blocks(F.Blocks.size());
  for (size_t B = 0; B != F.Blocks.size(); ++B) {
    const BasicBlock &BB = F.Blocks[B];
    ProfBlock &PB = Blocks[B];
    PB.Pc = static_cast<uint32_t>(Ops.size());
    PB.NumInstrs = BB.Instrs.size();
    for (size_t K = 0; K + 1 < BB.Instrs.size(); ++K) {
      MicroOp MO = decodeMicro(BB.Instrs[K]);
      ProfOp O;
      O.K = static_cast<uint8_t>(MO.K);
      O.Dst = MO.Dst.Id;
      O.A = MO.A.Id;
      O.B = MO.B.Id;
      O.Imm = MO.Imm;
      Ops.push_back(O);
    }
    const Instr &T = BB.terminator();
    ProfOp O;
    switch (T.Op) {
    case Opcode::Br:
      O.K = PkBr;
      O.A = T.SrcA.Id;
      O.Dst = static_cast<uint32_t>(T.Target0);
      O.B = static_cast<uint32_t>(T.Target1);
      break;
    case Opcode::Jmp:
      O.K = PkJmp;
      O.Dst = static_cast<uint32_t>(T.Target0);
      break;
    case Opcode::Ret:
      O.K = PkRet;
      break;
    default:
      assert(false && "bad terminator");
      break;
    }
    Ops.push_back(O);
  }

  ExecState S(M);
  InterpResult R;
  R.BlockCounts.assign(F.Blocks.size(), 0);
  R.EdgeCounts.assign(F.Blocks.size(), {0, 0});

  // The hot loop works on raw restrict-qualified pointers: the register
  // file, memory image, counters, and op stream never alias one another, so
  // the compiler can keep the bases in registers across the stores below.
  uint64_t *__restrict Rg = S.regsData();
  uint8_t *__restrict Mem = S.memData();
  const uint64_t MemSize = S.memSize();
  uint64_t *__restrict BC = R.BlockCounts.data();
  auto *__restrict EC = R.EdgeCounts.data();
  const ProfOp *__restrict Base = Ops.data();
  const ProfBlock *__restrict PB = Blocks.data();

  const auto ReadI = [&](uint32_t Id) -> int64_t {
    return static_cast<int64_t>(Rg[Id]);
  };
  const auto WriteI = [&](uint32_t Id, int64_t V) {
    Rg[Id] = static_cast<uint64_t>(V);
  };
  const auto ReadF = [&](uint32_t Id) -> double {
    double V;
    std::memcpy(&V, &Rg[Id], sizeof(double));
    return V;
  };
  const auto WriteF = [&](uint32_t Id, double V) {
    std::memcpy(&Rg[Id], &V, sizeof(double));
  };
  // Same non-faulting semantics as ExecState::loadWord / storeWord.
  const auto LoadW = [&](uint64_t Addr) -> uint64_t {
    if (Addr + 8 > MemSize || Addr + 8 < Addr)
      return 0xdeadbeefdeadbeefull ^ Addr;
    uint64_t V;
    std::memcpy(&V, Mem + Addr, 8);
    return V;
  };
  const auto StoreW = [&](uint64_t Addr, uint64_t V) {
    assert(Addr + 8 <= MemSize && "store out of bounds");
    std::memcpy(Mem + Addr, &V, 8);
  };

  uint64_t Dyn = 0;
  int Block = 0;
  int Next = 0;
  const ProfOp *__restrict Pc = Base;
  const ProfOp *O;

  // Dispatch. With GNU extensions every handler ends in its own computed
  // goto, so the indirect-branch predictor sees one jump site per opcode and
  // learns the op-pair transitions of the hot blocks; a single shared switch
  // dispatch funnels every transition through one site and mispredicts on
  // almost every dynamic instruction. The portable fallback is the plain
  // for/switch loop with identical handler bodies.
#if defined(__GNUC__) || defined(__clang__)
#define BS_CASE(name) H_##name:
#define BS_NEXT                                                              \
  do {                                                                       \
    O = Pc++;                                                                \
    goto *Jump[O->K];                                                        \
  } while (0)
#define BS_DISPATCH_BEGIN BS_NEXT;
#define BS_DISPATCH_END
  static const void *const Jump[] = {
      &&H_LdI,    &&H_FLdI,   &&H_Mov,    &&H_FMov,   &&H_ItoF,
      &&H_FtoI,   &&H_IAddR,  &&H_IAddI,  &&H_ISubR,  &&H_ISubI,
      &&H_IMulR,  &&H_IMulI,  &&H_SllR,   &&H_SllI,   &&H_SrlR,
      &&H_SrlI,   &&H_AndR,   &&H_AndI,   &&H_OrR,    &&H_OrI,
      &&H_XorR,   &&H_XorI,   &&H_CmpEqR, &&H_CmpEqI, &&H_CmpLtR,
      &&H_CmpLtI, &&H_CmpLeR, &&H_CmpLeI, &&H_FAdd,   &&H_FSub,
      &&H_FMul,   &&H_FDiv,   &&H_FCmpEq, &&H_FCmpLt, &&H_FCmpLe,
      &&H_CMov,   &&H_FCMov,  &&H_Load,   &&H_FLoad,  &&H_Store,
      &&H_FStore, &&H_PkBr,   &&H_PkJmp,  &&H_PkRet};
  static_assert(sizeof(Jump) / sizeof(Jump[0]) == PkRet + 1,
                "one handler per op code, in numbering order");
#else
#define BS_CASE(name) case Case_##name:
  // The switch needs integral case values; mirror the label names onto the
  // shared numbering so the handler bodies below stay identical.
  constexpr uint8_t Case_LdI = static_cast<uint8_t>(MicroKind::LdI),
      Case_FLdI = static_cast<uint8_t>(MicroKind::FLdI),
      Case_Mov = static_cast<uint8_t>(MicroKind::Mov),
      Case_FMov = static_cast<uint8_t>(MicroKind::FMov),
      Case_ItoF = static_cast<uint8_t>(MicroKind::ItoF),
      Case_FtoI = static_cast<uint8_t>(MicroKind::FtoI),
      Case_IAddR = static_cast<uint8_t>(MicroKind::IAddR),
      Case_IAddI = static_cast<uint8_t>(MicroKind::IAddI),
      Case_ISubR = static_cast<uint8_t>(MicroKind::ISubR),
      Case_ISubI = static_cast<uint8_t>(MicroKind::ISubI),
      Case_IMulR = static_cast<uint8_t>(MicroKind::IMulR),
      Case_IMulI = static_cast<uint8_t>(MicroKind::IMulI),
      Case_SllR = static_cast<uint8_t>(MicroKind::SllR),
      Case_SllI = static_cast<uint8_t>(MicroKind::SllI),
      Case_SrlR = static_cast<uint8_t>(MicroKind::SrlR),
      Case_SrlI = static_cast<uint8_t>(MicroKind::SrlI),
      Case_AndR = static_cast<uint8_t>(MicroKind::AndR),
      Case_AndI = static_cast<uint8_t>(MicroKind::AndI),
      Case_OrR = static_cast<uint8_t>(MicroKind::OrR),
      Case_OrI = static_cast<uint8_t>(MicroKind::OrI),
      Case_XorR = static_cast<uint8_t>(MicroKind::XorR),
      Case_XorI = static_cast<uint8_t>(MicroKind::XorI),
      Case_CmpEqR = static_cast<uint8_t>(MicroKind::CmpEqR),
      Case_CmpEqI = static_cast<uint8_t>(MicroKind::CmpEqI),
      Case_CmpLtR = static_cast<uint8_t>(MicroKind::CmpLtR),
      Case_CmpLtI = static_cast<uint8_t>(MicroKind::CmpLtI),
      Case_CmpLeR = static_cast<uint8_t>(MicroKind::CmpLeR),
      Case_CmpLeI = static_cast<uint8_t>(MicroKind::CmpLeI),
      Case_FAdd = static_cast<uint8_t>(MicroKind::FAdd),
      Case_FSub = static_cast<uint8_t>(MicroKind::FSub),
      Case_FMul = static_cast<uint8_t>(MicroKind::FMul),
      Case_FDiv = static_cast<uint8_t>(MicroKind::FDiv),
      Case_FCmpEq = static_cast<uint8_t>(MicroKind::FCmpEq),
      Case_FCmpLt = static_cast<uint8_t>(MicroKind::FCmpLt),
      Case_FCmpLe = static_cast<uint8_t>(MicroKind::FCmpLe),
      Case_CMov = static_cast<uint8_t>(MicroKind::CMov),
      Case_FCMov = static_cast<uint8_t>(MicroKind::FCMov),
      Case_Load = static_cast<uint8_t>(MicroKind::Load),
      Case_FLoad = static_cast<uint8_t>(MicroKind::FLoad),
      Case_Store = static_cast<uint8_t>(MicroKind::Store),
      Case_FStore = static_cast<uint8_t>(MicroKind::FStore),
      Case_PkBr = PkBr, Case_PkJmp = PkJmp, Case_PkRet = PkRet;
#define BS_NEXT break
#define BS_DISPATCH_BEGIN                                                    \
  for (;;) {                                                                 \
    O = Pc++;                                                                \
    switch (O->K) {
#define BS_DISPATCH_END                                                      \
    default:                                                                 \
      assert(false && "bad profiling op");                                   \
    }                                                                        \
  }
#endif

Enter:
  // Per-block bookkeeping matches interpretByInstr exactly: the count is
  // bumped before the budget check, so the block that would overrun is
  // still recorded as entered.
  ++BC[Next];
  if (Dyn + PB[Next].NumInstrs > MaxInstrs) {
    R.DynInstrs = Dyn;
    return R;
  }
  Dyn += PB[Next].NumInstrs;
  Block = Next;
  Pc = Base + PB[Next].Pc;
  BS_DISPATCH_BEGIN

  BS_CASE(LdI)
    WriteI(O->Dst, O->Imm);
    BS_NEXT;
  BS_CASE(FLdI) {
    double V;
    std::memcpy(&V, &O->Imm, sizeof(double));
    WriteF(O->Dst, V);
    BS_NEXT;
  }
  BS_CASE(Mov)
    WriteI(O->Dst, ReadI(O->A));
    BS_NEXT;
  BS_CASE(FMov)
    WriteF(O->Dst, ReadF(O->A));
    BS_NEXT;
  BS_CASE(ItoF)
    WriteF(O->Dst, static_cast<double>(ReadI(O->A)));
    BS_NEXT;
  BS_CASE(FtoI)
    WriteI(O->Dst, static_cast<int64_t>(ReadF(O->A)));
    BS_NEXT;
  BS_CASE(IAddR)
    WriteI(O->Dst, ReadI(O->A) + ReadI(O->B));
    BS_NEXT;
  BS_CASE(IAddI)
    WriteI(O->Dst, ReadI(O->A) + O->Imm);
    BS_NEXT;
  BS_CASE(ISubR)
    WriteI(O->Dst, ReadI(O->A) - ReadI(O->B));
    BS_NEXT;
  BS_CASE(ISubI)
    WriteI(O->Dst, ReadI(O->A) - O->Imm);
    BS_NEXT;
  BS_CASE(IMulR)
    WriteI(O->Dst, ReadI(O->A) * ReadI(O->B));
    BS_NEXT;
  BS_CASE(IMulI)
    WriteI(O->Dst, ReadI(O->A) * O->Imm);
    BS_NEXT;
  BS_CASE(SllR)
    WriteI(O->Dst, ReadI(O->A) << (ReadI(O->B) & 63));
    BS_NEXT;
  BS_CASE(SllI)
    WriteI(O->Dst, ReadI(O->A) << (O->Imm & 63));
    BS_NEXT;
  BS_CASE(SrlR)
    WriteI(O->Dst, static_cast<int64_t>(static_cast<uint64_t>(ReadI(O->A)) >>
                                        (ReadI(O->B) & 63)));
    BS_NEXT;
  BS_CASE(SrlI)
    WriteI(O->Dst, static_cast<int64_t>(static_cast<uint64_t>(ReadI(O->A)) >>
                                        (O->Imm & 63)));
    BS_NEXT;
  BS_CASE(AndR)
    WriteI(O->Dst, ReadI(O->A) & ReadI(O->B));
    BS_NEXT;
  BS_CASE(AndI)
    WriteI(O->Dst, ReadI(O->A) & O->Imm);
    BS_NEXT;
  BS_CASE(OrR)
    WriteI(O->Dst, ReadI(O->A) | ReadI(O->B));
    BS_NEXT;
  BS_CASE(OrI)
    WriteI(O->Dst, ReadI(O->A) | O->Imm);
    BS_NEXT;
  BS_CASE(XorR)
    WriteI(O->Dst, ReadI(O->A) ^ ReadI(O->B));
    BS_NEXT;
  BS_CASE(XorI)
    WriteI(O->Dst, ReadI(O->A) ^ O->Imm);
    BS_NEXT;
  BS_CASE(CmpEqR)
    WriteI(O->Dst, ReadI(O->A) == ReadI(O->B) ? 1 : 0);
    BS_NEXT;
  BS_CASE(CmpEqI)
    WriteI(O->Dst, ReadI(O->A) == O->Imm ? 1 : 0);
    BS_NEXT;
  BS_CASE(CmpLtR)
    WriteI(O->Dst, ReadI(O->A) < ReadI(O->B) ? 1 : 0);
    BS_NEXT;
  BS_CASE(CmpLtI)
    WriteI(O->Dst, ReadI(O->A) < O->Imm ? 1 : 0);
    BS_NEXT;
  BS_CASE(CmpLeR)
    WriteI(O->Dst, ReadI(O->A) <= ReadI(O->B) ? 1 : 0);
    BS_NEXT;
  BS_CASE(CmpLeI)
    WriteI(O->Dst, ReadI(O->A) <= O->Imm ? 1 : 0);
    BS_NEXT;
  BS_CASE(FAdd)
    WriteF(O->Dst, ReadF(O->A) + ReadF(O->B));
    BS_NEXT;
  BS_CASE(FSub)
    WriteF(O->Dst, ReadF(O->A) - ReadF(O->B));
    BS_NEXT;
  BS_CASE(FMul)
    WriteF(O->Dst, ReadF(O->A) * ReadF(O->B));
    BS_NEXT;
  BS_CASE(FDiv)
    WriteF(O->Dst, ReadF(O->A) / ReadF(O->B));
    BS_NEXT;
  BS_CASE(FCmpEq)
    WriteI(O->Dst, ReadF(O->A) == ReadF(O->B) ? 1 : 0);
    BS_NEXT;
  BS_CASE(FCmpLt)
    WriteI(O->Dst, ReadF(O->A) < ReadF(O->B) ? 1 : 0);
    BS_NEXT;
  BS_CASE(FCmpLe)
    WriteI(O->Dst, ReadF(O->A) <= ReadF(O->B) ? 1 : 0);
    BS_NEXT;
  BS_CASE(CMov)
    if (ReadI(O->A) != 0)
      WriteI(O->Dst, ReadI(O->B));
    BS_NEXT;
  BS_CASE(FCMov)
    if (ReadI(O->A) != 0)
      WriteF(O->Dst, ReadF(O->B));
    BS_NEXT;
  BS_CASE(Load)
    WriteI(O->Dst, static_cast<int64_t>(
                       LoadW(static_cast<uint64_t>(ReadI(O->B) + O->Imm))));
    BS_NEXT;
  BS_CASE(FLoad) {
    uint64_t Bits = LoadW(static_cast<uint64_t>(ReadI(O->B) + O->Imm));
    double V;
    std::memcpy(&V, &Bits, 8);
    WriteF(O->Dst, V);
    BS_NEXT;
  }
  BS_CASE(Store)
    StoreW(static_cast<uint64_t>(ReadI(O->B) + O->Imm),
           static_cast<uint64_t>(ReadI(O->A)));
    BS_NEXT;
  BS_CASE(FStore) {
    double V = ReadF(O->A);
    uint64_t Bits;
    std::memcpy(&Bits, &V, 8);
    StoreW(static_cast<uint64_t>(ReadI(O->B) + O->Imm), Bits);
    BS_NEXT;
  }
  BS_CASE(PkBr)
    if (ReadI(O->A) != 0) {
      ++EC[Block][0];
      Next = static_cast<int>(O->Dst);
    } else {
      ++EC[Block][1];
      Next = static_cast<int>(O->B);
    }
    goto Enter;
  BS_CASE(PkJmp)
    ++EC[Block][0];
    Next = static_cast<int>(O->Dst);
    goto Enter;
  BS_CASE(PkRet)
    R.Finished = true;
    R.DynInstrs = Dyn;
    R.Checksum = S.outputChecksum(M);
    return R;

  BS_DISPATCH_END

#undef BS_CASE
#undef BS_NEXT
#undef BS_DISPATCH_BEGIN
#undef BS_DISPATCH_END
}

std::string ir::checkProfileConservation(const Function &F,
                                         const InterpResult &R,
                                         uint64_t EntryUnits) {
  size_t N = F.Blocks.size();
  if (R.BlockCounts.size() != N)
    return "BlockCounts has " + std::to_string(R.BlockCounts.size()) +
           " entries for " + std::to_string(N) + " blocks";
  if (R.EdgeCounts.size() != N)
    return "EdgeCounts has " + std::to_string(R.EdgeCounts.size()) +
           " entries for " + std::to_string(N) + " blocks";

  std::vector<uint64_t> InSum(N, 0);
  for (size_t B = 0; B != N; ++B) {
    std::vector<int> Succs = F.Blocks[B].successors();
    uint64_t OutSum = 0;
    for (size_t K = 0; K != Succs.size(); ++K) {
      if (Succs[K] < 0 || static_cast<size_t>(Succs[K]) >= N)
        return "block b" + std::to_string(B) + " has an out-of-range successor";
      InSum[static_cast<size_t>(Succs[K])] += R.EdgeCounts[B][K];
      OutSum += R.EdgeCounts[B][K];
    }
    // Unused edge slots must stay zero (a Jmp's slot 1, a Ret's both).
    for (size_t K = Succs.size(); K != 2; ++K)
      if (R.EdgeCounts[B][K] != 0)
        return "block b" + std::to_string(B) + " has flow " +
               std::to_string(R.EdgeCounts[B][K]) + " on unused edge slot " +
               std::to_string(K);
    if (!Succs.empty() && OutSum != R.BlockCounts[B])
      return "block b" + std::to_string(B) + ": out-edge sum " +
             std::to_string(OutSum) + " != count " +
             std::to_string(R.BlockCounts[B]);
  }
  for (size_t B = 0; B != N; ++B) {
    uint64_t In = InSum[B] + (B == 0 ? EntryUnits : 0);
    if (In != R.BlockCounts[B])
      return "block b" + std::to_string(B) + ": in-edge sum " +
             std::to_string(In) + " != count " +
             std::to_string(R.BlockCounts[B]);
  }
  return "";
}
