//===- perfbench/Traced.cpp - Span-instrumented pipeline replicas -----------===//
//
// Each function below follows its library original line for line (see
// driver/Experiment.cpp and driver/Compiler.cpp); only the spans and the
// work counts are added. Keep them in step with the originals: the traced
// run's byte-identity check fails when they drift.
//
//===----------------------------------------------------------------------===//

#include "Traced.h"

#include "Spans.h"

#include "driver/ArtifactStore.h"
#include "driver/Artifacts.h"
#include "driver/ProfileCache.h"
#include "ir/Interp.h"
#include "lang/Eval.h"
#include "lang/Parser.h"
#include "support/Serialize.h"
#include "trace/EstimateProfile.h"

#include <mutex>
#include <optional>
#include <unordered_set>

using namespace bsched;
using namespace perfbench;

namespace {

/// Work counts the replicas observed.
struct TracedCounts {
  uint64_t EvalCalls = 0;
  uint64_t EvalPrograms = 0; ///< distinct sources evaluated.
  uint64_t SimCalls = 0;
  uint64_t SimInputs = 0;    ///< distinct (module bytes, machine) pairs.
  uint64_t SimInstrs = 0;    ///< dynamic instructions simulated.
  uint64_t SpillRestore = 0; ///< spill + restore instructions inserted.
};

std::mutex CountsMu;
TracedCounts Counts;                          // guarded by CountsMu
std::unordered_set<uint64_t> EvalSources;     // guarded by CountsMu
std::unordered_set<uint64_t> SimInputDigests; // guarded by CountsMu

void cacheConfig(ByteWriter &W, const sim::CacheConfig &C) {
  W.u64(C.SizeBytes);
  W.u32(C.LineSize);
  W.u32(C.Assoc);
  W.i64(C.Latency);
}

/// Digest of every MachineConfig field.
uint64_t machineDigest(const sim::MachineConfig &M) {
  ByteWriter W;
  cacheConfig(W, M.L1D);
  cacheConfig(W, M.L1I);
  cacheConfig(W, M.L2);
  cacheConfig(W, M.L3);
  W.i64(M.MemoryLatency);
  W.u32(M.NumMSHRs);
  W.u32(M.WriteBufferEntries);
  W.u32(M.DTlbEntries);
  W.u32(M.ITlbEntries);
  W.u32(M.PageSize);
  W.i64(M.TlbRefillLatency);
  W.u32(M.BranchPredictorEntries);
  W.i64(M.BranchMispredictPenalty);
  W.u32(M.IssueWidth);
  W.u32(M.MaxIntPerCycle);
  W.u32(M.MaxFpPerCycle);
  W.u32(M.MaxMemPerCycle);
  W.u64(M.CodeBase);
  W.b(M.PerfectFrontEnd);
  W.b(M.SimpleModel);
  W.d(M.SimpleHitRate);
  W.i64(M.SimpleHitLatency);
  W.i64(M.SimpleMissLatency);
  W.u64(M.SimpleSeed);
  W.u8(static_cast<uint8_t>(M.Impl));
  return fnv1a(W.buffer());
}

void noteEval(const char *Source) {
  uint64_t Digest = fnv1a(std::string(Source));
  std::lock_guard<std::mutex> Lock(CountsMu);
  ++Counts.EvalCalls;
  if (EvalSources.insert(Digest).second)
    ++Counts.EvalPrograms;
}

void noteSim(const ir::Module &M, const sim::MachineConfig &Machine,
             const sim::SimResult &R) {
  ByteWriter W;
  driver::encode(W, M);
  uint64_t Digest = fnv1a(W.buffer()) ^ (machineDigest(Machine) * 31);
  std::lock_guard<std::mutex> Lock(CountsMu);
  ++Counts.SimCalls;
  Counts.SimInstrs += R.Counts.total();
  if (SimInputDigests.insert(Digest).second)
    ++Counts.SimInputs;
}

void noteRegAlloc(const regalloc::RegAllocStats &S) {
  std::lock_guard<std::mutex> Lock(CountsMu);
  Counts.SpillRestore += static_cast<uint64_t>(S.SpillStores + S.RestoreLoads);
}

void zeroTimers(trace::TraceStats &S) {
  S.FormNs = S.CompactNs = S.WeightsNs = S.CompensationNs = 0;
}

} // namespace

std::string perfbench::stableBytes(RunResult R) {
  zeroTimers(R.Trace);
  ByteWriter W;
  driver::encode(W, R);
  return W.buffer();
}

std::string perfbench::stableBytes(CompileResult C) {
  zeroTimers(C.Trace);
  ByteWriter W;
  driver::encode(W, C);
  return W.buffer();
}

void perfbench::addSpanLayers(Layers &L) {
  static const char *const SpanNames[] = {
      "lang.parse",   "lang.check",     "lang.copy",      "lang.eval",
      "locality.apply", "xform.unroll", "lower.lower",    "opt.cleanup",
      "ir.verify",    "trace.profile",  "trace.schedule", "sched.schedule",
      "regalloc.alloc", "verify.check", "sim.simulate",   "driver.load",
      "driver.decode", "driver.encode", "driver.store",   "driver.job",
      "driver.request", "suite.emit"};
  SpanSummary Sum = summarizeSpans();
  for (const char *Name : SpanNames)
    L[std::string(Name) + "_ms"] = Sum.SelfMs[Name];
  L["bench.spans"] = static_cast<double>(Sum.Spans);
  L["bench.root_span_ms"] = Sum.RootMs;

  TracedCounts C;
  {
    std::lock_guard<std::mutex> Lock(CountsMu);
    C = Counts;
  }
  L["lang.eval_calls"] = static_cast<double>(C.EvalCalls);
  L["lang.eval_programs"] = static_cast<double>(C.EvalPrograms);
  L["sim.calls"] = static_cast<double>(C.SimCalls);
  L["sim.distinct_inputs"] = static_cast<double>(C.SimInputs);
  L["sim.instrs"] = static_cast<double>(C.SimInstrs);
  double SimMs = Sum.SelfMs["sim.simulate"];
  L["sim.minstr_per_s"] =
      SimMs > 0 ? static_cast<double>(C.SimInstrs) / (SimMs * 1e3) : 0.0;
  L["regalloc.spill_restore_instrs"] = static_cast<double>(C.SpillRestore);
}

RunResult perfbench::tracedRunCached(const Workload &W,
                                     const CompileOptions &Opts,
                                     const sim::MachineConfig &Machine) {
  ScopedSpan Job("driver.job");
  std::string Key = driver::resultKey(W, Opts, Machine);
  std::string Blob;
  bool Loaded;
  {
    ScopedSpan S("driver.load");
    Loaded = driver::loadArtifact(Key, Blob);
  }
  if (Loaded) {
    RunResult R;
    bool Decoded;
    {
      ScopedSpan S("driver.decode");
      ByteReader Rd(Blob);
      Decoded = driver::decode(Rd, R) && Rd.atEnd();
    }
    if (Decoded)
      return R;
    driver::noteArtifactDecodeFailure();
  }
  RunResult R = tracedRunWorkload(W, Opts, Machine);
  if (R.ok() && driver::artifactStoreEnabled()) {
    ByteWriter Wr;
    {
      ScopedSpan S("driver.encode");
      driver::encode(Wr, R);
    }
    ScopedSpan S("driver.store");
    driver::storeArtifact(Key, Wr.buffer());
  }
  return R;
}

RunResult perfbench::tracedRunWorkload(const Workload &W,
                                       const CompileOptions &Opts,
                                       const sim::MachineConfig &Machine) {
  RunResult R;

  lang::Program P;
  {
    ScopedSpan S("lang.parse");
    P = driver::parseWorkload(W);
  }
  lang::EvalResult Ref;
  {
    ScopedSpan S("lang.eval");
    Ref = lang::evalProgram(P);
  }
  noteEval(W.Source);
  if (!Ref.ok()) {
    R.Error = std::string(W.Name) + ": oracle: " + Ref.Error;
    return R;
  }

  CompileResult C = tracedCompileProgram(P, Opts);
  if (!C.ok()) {
    R.Error = std::string(W.Name) + " [" + Opts.tag() + "]: " + C.Error;
    return R;
  }
  R.Unroll = C.Unroll;
  R.Locality = C.Locality;
  R.Trace = C.Trace;
  R.RegAlloc = C.RegAlloc;

  {
    ScopedSpan S("sim.simulate");
    R.Sim = sim::simulate(C.M, Machine);
  }
  noteSim(C.M, Machine, R.Sim);
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

CompileResult perfbench::tracedCompileProgram(const lang::Program &Source,
                                              const CompileOptions &Opts) {
  CompileResult R;
  lang::Program P;
  {
    ScopedSpan S("lang.copy");
    P = Source;
  }

  {
    ScopedSpan S("lang.check");
    if (std::string E = lang::checkProgram(P); !E.empty()) {
      R.Error = "check: " + E;
      return R;
    }
  }

  if (Opts.LocalityAnalysis) {
    locality::LocalityOptions LOpts;
    LOpts.UnrollFactor = Opts.UnrollFactor > 1 ? Opts.UnrollFactor : 0;
    ScopedSpan S("locality.apply");
    R.Locality = locality::applyLocality(P, LOpts);
  }
  if (Opts.UnrollFactor > 1) {
    ScopedSpan S("xform.unroll");
    R.Unroll = xform::unrollLoops(P, Opts.UnrollFactor);
  }
  if (Opts.LocalityAnalysis || Opts.UnrollFactor > 1) {
    ScopedSpan S("lang.check");
    if (std::string E = lang::checkProgram(P); !E.empty()) {
      R.Error = "recheck after transforms: " + E;
      return R;
    }
  }

  lower::LowerResult LR;
  {
    ScopedSpan S("lower.lower");
    LR = lower::lowerProgram(P, Opts.Lower);
  }
  if (!LR.ok()) {
    R.Error = "lower: " + LR.Error;
    return R;
  }
  R.M = std::move(LR.M);

  bool Ref = Opts.Balance.Impl == sched::SchedImpl::Reference;

  if (Opts.CleanupIR) {
    {
      ScopedSpan S("opt.cleanup");
      R.Cleanup = opt::cleanupModule(R.M, Ref);
    }
    ScopedSpan S("ir.verify");
    if (std::string E = ir::verify(R.M); !E.empty()) {
      R.Error = "cleanup broke the IR: " + E;
      return R;
    }
  }

  auto Flag = [&R](verify::VerifyResult V, const char *Pass) {
    if (V.ok())
      return false;
    R.Error = std::string(Pass) + " verifier: " + toString(V.Diags.front()) +
              (V.Diags.size() > 1
                   ? " (+" + std::to_string(V.Diags.size() - 1) + " more)"
                   : "");
    R.VerifyDiags = std::move(V.Diags);
    return true;
  };

  std::optional<sched::exact::ExactStatsScope> ExactScope;
  if (Opts.Balance.Impl == sched::SchedImpl::Exact)
    ExactScope.emplace();
  ir::Module PreSched;
  if (Opts.VerifyPasses) {
    ScopedSpan S("verify.check");
    PreSched = R.M;
  }
  if (Opts.TraceScheduling) {
    ir::InterpResult Profile;
    {
      ScopedSpan S("trace.profile");
      Profile = Opts.UseEstimatedProfile
                    ? (Ref ? trace::estimateProfile(R.M.Fn)
                           : driver::estimatedProfileModule(R.M))
                    : (Ref ? ir::interpretByInstr(R.M)
                           : driver::profileModule(R.M));
    }
    if (!Profile.Finished) {
      R.Error = Opts.UseEstimatedProfile
                    ? "profile estimate: some path never returns"
                    : "profiling run exceeded the instruction budget";
      return R;
    }
    {
      ScopedSpan S("trace.schedule");
      R.Trace = trace::traceScheduleFunction(
          R.M, Profile, Opts.Scheduler, Opts.Balance,
          Ref ? trace::TraceImpl::Reference : Opts.TraceImpl);
    }
    if (Opts.VerifyPasses) {
      ScopedSpan S("verify.check");
      if (Flag(verify::verifyTraceSchedule(PreSched, R.M, R.Trace.Formed),
               "trace-schedule"))
        return R;
    }
  } else {
    {
      ScopedSpan S("sched.schedule");
      sched::scheduleFunction(R.M, Opts.Scheduler, Opts.Balance);
    }
    if (Opts.VerifyPasses) {
      ScopedSpan S("verify.check");
      if (Flag(verify::verifySchedule(PreSched, R.M), "schedule"))
        return R;
    }
  }
  if (ExactScope) {
    R.Exact = ExactScope->stats();
    ExactScope.reset();
  }
  if (Opts.VerifyPasses) {
    ScopedSpan S("verify.check");
    if (Flag(verify::verifyModule(R.M), "module"))
      return R;
  }

  if (!Opts.StopBeforeRegAlloc) {
    ir::Module PreAlloc;
    if (Opts.VerifyPasses) {
      ScopedSpan S("verify.check");
      PreAlloc = R.M;
    }
    {
      ScopedSpan S("regalloc.alloc");
      R.RegAlloc = regalloc::allocateRegisters(R.M, Opts.RegAlloc, Ref);
    }
    noteRegAlloc(R.RegAlloc);
    if (!R.RegAlloc.ok()) {
      R.Error = "regalloc: " + R.RegAlloc.Error;
      return R;
    }
    if (Opts.VerifyPasses) {
      ScopedSpan S("verify.check");
      if (Flag(verify::verifyRegAlloc(PreAlloc, R.M,
                                      Opts.RegAlloc.AllocatablePerClass),
               "regalloc"))
        return R;
    }
  }

  ScopedSpan S("ir.verify");
  if (std::string E = ir::verify(R.M); !E.empty())
    R.Error = "verify: " + E;
  return R;
}

CompileResult perfbench::tracedCompileSource(const std::string &Text,
                                             const std::string &Name,
                                             const CompileOptions &Opts) {
  lang::ParseResult PR;
  {
    ScopedSpan S("lang.parse");
    PR = lang::parseProgram(Text, Name);
  }
  if (!PR.ok()) {
    CompileResult R;
    R.Error = "parse: " + PR.Error;
    return R;
  }
  return tracedCompileProgram(PR.Prog, Opts);
}
