//===- driver/ProfileCache.cpp - Memoized profiling runs -------------------===//

#include "driver/ProfileCache.h"

#include "support/Serialize.h"
#include "trace/EstimateProfile.h"

using namespace bsched;
using namespace bsched::driver;
using namespace bsched::ir;

namespace {

/// Profile kinds share the cache but never a slot: the salt is the first
/// word of every key, so an estimated profile cannot be served where an
/// interpreted one was expected (they disagree on counts by design).
enum class ProfileKind : uint64_t { Interpreted = 0, Estimated = 1 };

/// FNV-1a over the module state the interpreter reads. Two modules with equal
/// hashes-input produce identical InterpResults by construction: the
/// interpreter's behaviour is a function of exactly these fields (plus the
/// zero-initialized register file and memory image, whose sizes are
/// included). Scheduling metadata the interpreter never touches — memory
/// dependence terms, hit/miss hints, locality groups, spill flags — is
/// deliberately excluded so reschedulings of the same code share a profile.
uint64_t hashModule(const Module &M, uint64_t MaxInstrs, ProfileKind Kind) {
  Fnv1a H;
  H.word(static_cast<uint64_t>(Kind));
  H.word(MaxInstrs);
  H.word(M.MemorySize);
  H.word(M.Fn.numRegs());
  H.word(M.Arrays.size());
  for (const ArrayInfo &A : M.Arrays) {
    H.word(A.Base);
    H.word(static_cast<uint64_t>(A.sizeBytes()));
    H.word(A.IsOutput ? 1 : 0);
  }
  H.word(M.Fn.Blocks.size());
  for (const BasicBlock &B : M.Fn.Blocks) {
    // The estimator (not the interpreter) reads the trip-count annotation;
    // hashing it for both kinds costs nothing beyond a rare extra miss.
    H.word(static_cast<uint64_t>(B.ExactTripCount));
    H.word(B.Instrs.size());
    for (const Instr &I : B.Instrs) {
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

/// Bounded at 16 x 32 entries: experiment sweeps see a few dozen distinct
/// modules, fuzzing sees a stream of unique ones.
OnceCache<uint64_t, InterpResult> &profileCache() {
  static OnceCache<uint64_t, InterpResult> C(/*MaxPerShard=*/32);
  return C;
}

} // namespace

InterpResult driver::profileModule(const Module &M, uint64_t MaxInstrs) {
  return *profileCache().get(hashModule(M, MaxInstrs, ProfileKind::Interpreted),
                             [&] { return interpret(M, MaxInstrs); });
}

InterpResult driver::estimatedProfileModule(const Module &M) {
  return *profileCache().get(hashModule(M, 0, ProfileKind::Estimated),
                             [&] { return trace::estimateProfile(M.Fn); });
}

ProfileCacheStats driver::profileCacheStats() { return profileCache().stats(); }

void driver::clearProfileCache() { profileCache().clear(); }
