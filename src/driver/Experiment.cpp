//===- driver/Experiment.cpp - Experiment harness ---------------------------===//

#include "driver/Experiment.h"

#include "driver/ArtifactStore.h"
#include "driver/Artifacts.h"
#include "lang/Eval.h"
#include "support/Serialize.h"
#include "support/Str.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

using namespace bsched;
using namespace bsched::driver;

namespace {

/// The oracle's statement budget for experiment runs. It is part of the
/// memo key: a result evaluated under one budget says nothing about another.
constexpr uint64_t OracleMaxStmts = 500000000ull;

/// One memoized result, of a run or of an oracle evaluation. The once_flag
/// serializes concurrent computations of the same key without holding the
/// map's mutex: that mutex only guards slot creation, and the first caller
/// to reach call_once computes while later callers for that key block on
/// the flag (not on the mutex).
template <typename T> struct CacheEntry {
  std::once_flag Once;
  std::atomic<bool> Done{false}; ///< stats-only: distinguishes hit from wait.
  T R;
};

/// A whole suite has 17 distinct programs, so one map and one mutex suffice.
/// Slots are shared_ptr-held so clearResultCache can drop the map while a
/// caller is still evaluating or waiting.
struct OracleMemo {
  std::mutex Mu;
  std::unordered_map<std::string,
                     std::shared_ptr<CacheEntry<lang::EvalResult>>>
      Map;
  OracleCacheStats Stats;
};

OracleMemo &oracleMemo() {
  static OracleMemo M;
  return M;
}

/// lang::evalProgram(P, OracleMaxStmts), evaluated once per distinct
/// (source bytes, budget) per process. \p P must be W's parsed source. The
/// key is the source, never W.Name: two workloads may share a name.
lang::EvalResult oracleResult(const Workload &W, const lang::Program &P) {
  // Source is a C string, so the NUL cannot occur inside it.
  std::string Key = W.Source;
  Key += '\0';
  Key += std::to_string(OracleMaxStmts);
  OracleMemo &M = oracleMemo();
  std::shared_ptr<CacheEntry<lang::EvalResult>> Entry;
  {
    std::lock_guard<std::mutex> Lock(M.Mu);
    auto &Slot = M.Map[Key];
    if (!Slot) {
      Slot = std::make_shared<CacheEntry<lang::EvalResult>>();
      ++M.Stats.Evaluations;
    } else if (Slot->Done.load(std::memory_order_acquire)) {
      ++M.Stats.Hits;
    } else {
      ++M.Stats.InFlightWaits;
    }
    Entry = Slot;
  }
  std::call_once(Entry->Once, [&] {
    Entry->R = lang::evalProgram(P, OracleMaxStmts);
    Entry->Done.store(true, std::memory_order_release);
  });
  return Entry->R;
}

} // namespace

OracleCacheStats driver::oracleCacheStats() {
  OracleMemo &M = oracleMemo();
  std::lock_guard<std::mutex> Lock(M.Mu);
  return M.Stats;
}

RunResult driver::runWorkload(const Workload &W, const CompileOptions &Opts,
                              const sim::MachineConfig &Machine) {
  RunResult R;

  lang::Program P = parseWorkload(W);
  lang::EvalResult Ref = oracleResult(W, P);
  if (!Ref.ok()) {
    R.Error = std::string(W.Name) + ": oracle: " + Ref.Error;
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
  if (R.Sim.Checksum != Ref.Checksum) {
    R.Error = std::string(W.Name) + " [" + Opts.tag() +
              "]: MISCOMPILE - simulated checksum differs from the oracle";
    return R;
  }
  return R;
}

namespace {

/// The result cache is sharded by key hash so workers running unrelated
/// jobs never touch the same mutex: with one global lock, every compile of
/// a batched sweep paid a serialized lookup, which dominated wall time once
/// PRs 2/5 made the compiles themselves cheap. Entries live behind
/// unique_ptr so the returned references stay valid however much a shard
/// grows or rehashes: callers hold them across many later runCached calls.
struct ResultShard {
  std::mutex Mu;
  std::unordered_map<std::string, std::unique_ptr<CacheEntry<RunResult>>> Map;
  ResultCacheStats Stats;
};

/// Power of two comfortably above the worker counts this codebase runs.
constexpr size_t NumResultShards = 16;

ResultShard *resultShards() {
  static ResultShard S[NumResultShards];
  return S;
}

} // namespace

ResultCacheStats driver::resultCacheStats() {
  ResultCacheStats Total;
  for (size_t I = 0; I != NumResultShards; ++I) {
    ResultShard &S = resultShards()[I];
    std::lock_guard<std::mutex> Lock(S.Mu);
    Total.Hits += S.Stats.Hits;
    Total.Misses += S.Stats.Misses;
    Total.InFlightWaits += S.Stats.InFlightWaits;
  }
  return Total;
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
  for (size_t I = 0; I != NumResultShards; ++I) {
    ResultShard &S = resultShards()[I];
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.Map.clear();
  }
  OracleMemo &M = oracleMemo();
  std::lock_guard<std::mutex> Lock(M.Mu);
  M.Map.clear();
}

const RunResult &driver::runCached(const Workload &W,
                                   const CompileOptions &Opts,
                                   const sim::MachineConfig &Machine) {
  std::string Key = resultKey(W, Opts, Machine);
  size_t Hash = std::hash<std::string>{}(Key);
  ResultShard &S = resultShards()[(Hash ^ (Hash >> 32)) & (NumResultShards - 1)];
  CacheEntry<RunResult> *Entry;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    std::unique_ptr<CacheEntry<RunResult>> &Slot = S.Map[Key];
    if (!Slot) {
      Slot = std::make_unique<CacheEntry<RunResult>>();
      ++S.Stats.Misses;
    } else if (Slot->Done.load(std::memory_order_acquire)) {
      ++S.Stats.Hits;
    } else {
      ++S.Stats.InFlightWaits;
    }
    Entry = Slot.get();
  }
  std::call_once(Entry->Once, [&] {
    // Disk tier: a verified, decodable artifact substitutes for the
    // compute. Anything less degrades to runWorkload — a bad disk entry
    // can cost time, never correctness.
    std::string Blob;
    if (loadArtifact(Key, Blob)) {
      ByteReader Rd(Blob);
      RunResult Loaded;
      if (decode(Rd, Loaded) && Rd.atEnd()) {
        Entry->R = std::move(Loaded);
        Entry->Done.store(true, std::memory_order_release);
        return;
      }
      noteArtifactDecodeFailure();
    }
    Entry->R = runWorkload(W, Opts, Machine);
    // Persist only clean results: errors are cheap to re-derive and must
    // not outlive the bug (or transient condition) that caused them.
    if (Entry->R.ok() && artifactStoreEnabled()) {
      ByteWriter Wr;
      encode(Wr, Entry->R);
      storeArtifact(Key, Wr.buffer());
    }
    Entry->Done.store(true, std::memory_order_release);
  });
  return Entry->R;
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
