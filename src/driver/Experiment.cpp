//===- driver/Experiment.cpp - Experiment harness ---------------------------===//

#include "driver/Experiment.h"

#include "driver/ArtifactStore.h"
#include "driver/Artifacts.h"
#include "lang/Eval.h"
#include "support/Serialize.h"
#include "support/Str.h"
#include "support/ThreadPool.h"

#include <memory>
#include <string>

using namespace bsched;
using namespace bsched::driver;

namespace {

/// The oracle's statement budget for experiment runs. It is part of the
/// memo key: a result evaluated under one budget says nothing about another.
constexpr uint64_t OracleMaxStmts = 500000000ull;

/// runCached's memory tier. Unbounded, so the references runCached returns
/// stay valid until clearResultCache.
OnceCache<std::string, RunResult> &resultCache() {
  static OnceCache<std::string, RunResult> C;
  return C;
}

/// runWorkload's oracle memo. A whole suite has 17 distinct programs.
OnceCache<std::string, lang::EvalResult> &oracleMemo() {
  static OnceCache<std::string, lang::EvalResult> M;
  return M;
}

/// lang::evalProgram(P, OracleMaxStmts), evaluated once per distinct
/// (source bytes, budget) per process. \p P must be W's parsed source. The
/// key is the source, never W.Name: two workloads may share a name.
std::shared_ptr<const lang::EvalResult> oracleResult(const Workload &W,
                                                    const lang::Program &P) {
  // Source is a C string, so the NUL cannot occur inside it.
  std::string Key = W.Source;
  Key += '\0';
  Key += std::to_string(OracleMaxStmts);
  return oracleMemo().get(Key,
                          [&] { return lang::evalProgram(P, OracleMaxStmts); });
}

} // namespace

ResultCacheStats driver::resultCacheStats() { return resultCache().stats(); }

OracleCacheStats driver::oracleCacheStats() { return oracleMemo().stats(); }

RunResult driver::runWorkload(const Workload &W, const CompileOptions &Opts,
                              const sim::MachineConfig &Machine) {
  RunResult R;

  lang::Program P = parseWorkload(W);
  std::shared_ptr<const lang::EvalResult> Ref = oracleResult(W, P);
  if (!Ref->ok()) {
    R.Error = std::string(W.Name) + ": oracle: " + Ref->Error;
    return R;
  }

  CompileResult C = compileProgram(P, Opts);
  if (!C.ok()) {
    R.Error = std::string(W.Name) + " [" + Opts.tag() + "]: " + C.Error;
    return R;
  }
  R.Unroll = C.Unroll;
  R.Locality = C.Locality;
  R.Trace = C.Trace;
  R.RegAlloc = C.RegAlloc;

  R.Sim = sim::simulate(C.M, Machine);
  if (!R.Sim.ok()) {
    R.Error = std::string(W.Name) + " [" + Opts.tag() + "]: " + R.Sim.Error;
    return R;
  }
  if (!R.Sim.Finished) {
    R.Error = std::string(W.Name) + " [" + Opts.tag() +
              "]: simulation exceeded the cycle budget";
    return R;
  }
  if (R.Sim.Checksum != Ref->Checksum) {
    R.Error = std::string(W.Name) + " [" + Opts.tag() +
              "]: MISCOMPILE - simulated checksum differs from the oracle";
    return R;
  }
  return R;
}

std::string driver::resultKey(const Workload &W, const CompileOptions &Opts,
                              const sim::MachineConfig &Machine) {
  return std::string(W.Name) + "|" + Opts.tag() + "|" +
         (Machine.SimpleModel
              ? "simple:" + fmtDouble(Machine.SimpleHitRate, 3)
              : std::string("21164")) +
         "|w" + std::to_string(Machine.IssueWidth) + "|p" +
         std::to_string(Opts.Balance.PressureThreshold) +
         (Opts.Balance.BalanceFixedOps ? "|bf" : "") +
         // Off-default ablation knobs only, so default keys never change.
         (Opts.Balance.WeightCap != sched::BalanceOptions{}.WeightCap
              ? "|wc" + fmtDoubleExact(Opts.Balance.WeightCap)
              : "") +
         (Opts.Balance.RespectHitAnnotations ? "" : "|nohit") + "|a" +
         std::to_string(Opts.RegAlloc.AllocatablePerClass) +
         // tag() already carries "+Est"; keep the explicit suffix
         // as belt-and-braces (the ProfileCache layer separates
         // the two profile kinds with its own key salt).
         (Opts.UseEstimatedProfile ? "|est" : "") +
         (Opts.VerifyPasses ? "" : "|nv") +
         (Opts.Balance.Impl == sched::SchedImpl::Reference ? "|ref" : "") +
         (Opts.Balance.Impl == sched::SchedImpl::Exact ? "|exact" : "") +
         (Opts.TraceImpl == trace::TraceImpl::Reference ? "|trref" : "") +
         (Machine.Impl == sim::SimImpl::Reference ? "|simref" : "");
}

void driver::clearResultCache() {
  resultCache().clear();
  oracleMemo().clear();
}

const RunResult &driver::runCached(const Workload &W,
                                   const CompileOptions &Opts,
                                   const sim::MachineConfig &Machine) {
  std::string Key = resultKey(W, Opts, Machine);
  return *resultCache().get(Key, [&] {
    // Disk tier: a verified, decodable artifact substitutes for the
    // compute. Anything less degrades to runWorkload — a bad disk entry
    // can cost time, never correctness.
    std::string Blob;
    if (loadArtifact(Key, Blob)) {
      ByteReader Rd(Blob);
      RunResult Loaded;
      if (decode(Rd, Loaded) && Rd.atEnd())
        return Loaded;
      noteArtifactDecodeFailure();
    }
    RunResult R = runWorkload(W, Opts, Machine);
    // Persist only clean results: errors are cheap to re-derive and must
    // not outlive the bug (or transient condition) that caused them.
    if (R.ok() && artifactStoreEnabled()) {
      ByteWriter Wr;
      encode(Wr, R);
      storeArtifact(Key, Wr.buffer());
    }
    return R;
  });
}

std::vector<const RunResult *>
driver::runAll(const std::vector<ExperimentJob> &Jobs, unsigned NumThreads,
               ChunkPolicy Policy) {
  std::vector<const RunResult *> Results(Jobs.size(), nullptr);
  ThreadPool::parallelForChunked(
      NumThreads, Jobs.size(),
      [&](size_t I) {
        const ExperimentJob &J = Jobs[I];
        Results[I] = &runCached(*J.W, J.Opts, J.Machine);
      },
      Policy);
  return Results;
}

double driver::mean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0.0;
  double Sum = 0.0;
  for (double X : Xs)
    Sum += X;
  return Sum / static_cast<double>(Xs.size());
}

double driver::speedup(const RunResult &Base, const RunResult &New) {
  if (New.Sim.Cycles == 0)
    return 0.0;
  return static_cast<double>(Base.Sim.Cycles) /
         static_cast<double>(New.Sim.Cycles);
}

double driver::pctDecrease(uint64_t Base, uint64_t New) {
  if (Base == 0)
    return 0.0;
  return (static_cast<double>(Base) - static_cast<double>(New)) /
         static_cast<double>(Base);
}
