//===- perfbench/Stream.cpp - The compile-stream workload -------------------===//
//
// One client in a closed loop issues driver::compileSource requests, each
// the next only after the previous returned. The requests are a seeded
// shuffle of 17 workloads x {BS, TS, HY} x unroll {1, 4, 8} x locality
// {off, on} x {list, TrS, TrS+Est} = 918 distinct compiles, with
// VerifyPasses at its library default (on). No simulation and no oracle
// run inside a request. Passes over the grid repeat until --seconds have
// elapsed (at least one); each pass starts with an empty profile cache.
//
// Checks (untimed, in batches between requests, on the worker pool): every
// request compiled, and ir::interpret of its module finishes with
// lang::evalProgram's checksum. The traced pass compiles through the
// span-instrumented replica and checks each result's encoding against
// compileSource's.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"
#include "Traced.h"

#include "driver/ProfileCache.h"
#include "ir/Interp.h"
#include "lang/Eval.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <thread>

using namespace bsched;
using namespace perfbench;

namespace {

struct Request {
  const driver::Workload *W = nullptr;
  size_t WorkloadIdx = 0;
  std::string Text; ///< the kernel source the request carries.
  driver::CompileOptions Opts;
};

/// The shuffled request grid. With \p Plant == "interp-checksum" (the
/// self-test's planted fault) the first request carries another workload's
/// source, so its module computes the wrong checksum.
std::vector<Request> makeRequests(uint64_t Seed, const std::string &Plant) {
  const std::vector<driver::Workload> &Ws = driver::workloads();
  const sched::SchedulerKind Kinds[] = {sched::SchedulerKind::Balanced,
                                        sched::SchedulerKind::Traditional,
                                        sched::SchedulerKind::Hybrid};
  std::vector<Request> Reqs;
  for (size_t WI = 0; WI != Ws.size(); ++WI)
    for (sched::SchedulerKind K : Kinds)
      for (int Unroll : {1, 4, 8})
        for (bool LA : {false, true})
          for (int Mode = 0; Mode != 3; ++Mode) {
            Request R;
            R.W = &Ws[WI];
            R.WorkloadIdx = WI;
            R.Text = Ws[WI].Source;
            R.Opts.Scheduler = K;
            R.Opts.UnrollFactor = Unroll;
            R.Opts.LocalityAnalysis = LA;
            R.Opts.TraceScheduling = Mode != 0;
            R.Opts.UseEstimatedProfile = Mode == 2;
            Reqs.push_back(R);
          }
  // Fisher-Yates over a splitmix64 stream: the same order on every host.
  uint64_t State = Seed;
  for (size_t I = Reqs.size(); I > 1; --I) {
    State = mix64(State);
    std::swap(Reqs[I - 1], Reqs[State % I]);
  }
  if (Plant == "interp-checksum")
    Reqs[0].Text = Ws[(Reqs[0].WorkloadIdx + 1) % Ws.size()].Source;
  return Reqs;
}

struct Done {
  size_t Req = 0;
  driver::CompileResult C;
};

} // namespace

int perfbench::runStream(const Args &A) {
  double LoadBefore = loadAverage1();
  Round Rd;

  std::vector<Request> Reqs;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    uint64_t T0 = nowNs();
    Reqs = makeRequests(A.Seed, A.Plant);
    Rd.SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }

  // The AST oracle, once per workload (untimed).
  const std::vector<driver::Workload> &Ws = driver::workloads();
  std::vector<uint64_t> Oracle(Ws.size(), 0);
  ThreadPool::parallelForChunked(A.Workers, Ws.size(), [&](size_t I) {
    lang::EvalResult E = lang::evalProgram(driver::parseWorkload(Ws[I]));
    Oracle[I] = E.ok() ? E.Checksum : ~0ull;
  });

  if (A.Traced)
    enableSpans();

  std::vector<Done> Batch;
  auto CheckBatch = [&] {
    std::vector<std::string> Why(Batch.size());
    ThreadPool::parallelForChunked(A.Workers, Batch.size(), [&](size_t I) {
      const Request &R = Reqs[Batch[I].Req];
      const driver::CompileResult &C = Batch[I].C;
      if (!C.ok()) {
        Why[I] = "compile failed: " + C.Error;
        return;
      }
      ir::InterpResult Out = ir::interpret(C.M);
      if (!Out.Finished)
        Why[I] = "interpretation did not finish";
      else if (Out.Checksum != Oracle[R.WorkloadIdx])
        Why[I] = "interpreted checksum differs from lang::evalProgram's";
      else if (A.Traced &&
               stableBytes(C) != stableBytes(driver::compileSource(
                                      R.Text, R.W->Name, R.Opts)))
        Why[I] = "traced replica differs from driver::compileSource";
    });
    for (size_t I = 0; I != Batch.size(); ++I)
      if (!Why[I].empty()) {
        const Request &R = Reqs[Batch[I].Req];
        Rd.Failures.push_back("request " + std::string(R.W->Name) + " [" +
                              R.Opts.tag() + "]: " + Why[I]);
      }
    Batch.clear();
  };

  double ProfHits = 0, ProfMisses = 0;
  uint64_t Start = nowNs();
  do {
    driver::clearProfileCache();
    double Wall = 0, Cpu = 0, Steal0 = stealSeconds();
    uint64_t PassStart = nowNs();
    for (size_t I = 0; I != Reqs.size(); ++I) {
      const Request &R = Reqs[I];
      driver::ProfileCacheStats P0 = driver::profileCacheStats();
      setSpanJob(static_cast<uint32_t>(I));
      double C0 = threadCpuSeconds();
      uint64_t T0 = nowNs();
      driver::CompileResult C;
      if (A.Traced) {
        ScopedSpan S("driver.request");
        C = tracedCompileSource(R.Text, R.W->Name, R.Opts);
      } else {
        C = driver::compileSource(R.Text, R.W->Name, R.Opts);
      }
      uint64_t T1 = nowNs();
      double C1 = threadCpuSeconds();
      driver::ProfileCacheStats P1 = driver::profileCacheStats();
      ProfHits += static_cast<double>(P1.Hits - P0.Hits);
      ProfMisses += static_cast<double>(P1.Misses - P0.Misses);
      double Ms = static_cast<double>(T1 - T0) / 1e6;
      Rd.LatMs.push_back(Ms);
      Wall += Ms / 1e3;
      Cpu += C1 - C0;
      Batch.push_back({I, std::move(C)});
      if (Batch.size() == 32)
        CheckBatch();
    }
    CheckBatch();
    Rd.WallS.push_back(Wall);
    Rd.CpuS.push_back(Cpu);
    Rd.StealShare.push_back((stealSeconds() - Steal0) /
                            (static_cast<double>(nowNs() - PassStart) / 1e9 *
                             std::thread::hardware_concurrency()));
    Rd.Attempted += Reqs.size();
  } while (static_cast<double>(nowNs() - Start) / 1e9 < A.Seconds);

  if (A.Traced) {
    Layers &L = Rd.PerLayer;
    addSpanLayers(L);
    double WallMs = 0;
    for (double S : Rd.WallS)
      WallMs += S * 1e3;
    L["driver.profile_hits"] = ProfHits;
    L["driver.profile_misses"] = ProfMisses;
    L["bench.span_coverage"] = L["bench.root_span_ms"] / WallMs;
    // No result cache, store, suite or worker pool inside a request.
    for (const char *Unused :
         {"driver.mem_hits", "driver.mem_misses", "driver.inflight_waits",
          "driver.disk_hits", "driver.disk_writes", "driver.disk_rejected",
          "suite.dispatch_ms", "support.worker_busy_ms",
          "support.worker_idle_ms"})
      L[Unused] = 0;
    if (!A.TraceOut.empty() && !writeSpans(A.TraceOut))
      std::fprintf(stderr, "perfbench: cannot write %s\n", A.TraceOut.c_str());
  }
  printRound(A, Rd, LoadBefore);
  return 0;
}
