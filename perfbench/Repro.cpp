//===- perfbench/Repro.cpp - The repro-cold and repro-warm workloads --------===//
//
// One round = the full bsched-suite reproduction in this process:
//
//   set-up    collect every table's job grid and deduplicate it by
//             driver::resultKey (the suite's 1333 -> 561), point the
//             artifact store at --store; timed SetupReps times, median reported.
//   dispatch  driver::runCached on every unique job through
//             ThreadPool::parallelForChunked (guided), exactly as
//             driver::runAll does, each call timed: the operations.
//   emit      every table's Run(), its stdout captured in memory.
//   checks    untimed: every result against the AST oracle and the
//             simulator's own accounting identities, a seeded sample
//             re-simulated on the reference core, the tables' bytes.
//
// repro-cold starts from an empty store (run.py gives each round a fresh
// directory) and writes the tables' bytes to --tables-dir; repro-warm reads
// a store one untimed cold pass filled and compares the tables' bytes with
// that pass's.
//
// The traced round dispatches through the span-instrumented replica of
// runCached (Traced.h) instead, then primes the memory tier with an untimed
// runAll so the emit phase makes the same calls as an untraced round, and
// finally checks every traced result byte-for-byte against runWorkload.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"
#include "Traced.h"

#include "Suite.h"

#include "driver/ArtifactStore.h"
#include "driver/Artifacts.h"
#include "driver/ProfileCache.h"
#include "lang/Eval.h"
#include "support/Serialize.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include <sys/mman.h>
#include <unistd.h>

using namespace bsched;
using namespace perfbench;

BSCHED_SUITE_ALL_TABLES(BSCHED_SUITE_DECLARE)

namespace {

std::vector<bench::SuiteTable> selectTables(const std::vector<std::string> &Only) {
  std::vector<bench::SuiteTable> All;
#define PERFBENCH_COLLECT(NAME) All.push_back(bsched_suite_table_##NAME());
  BSCHED_SUITE_ALL_TABLES(PERFBENCH_COLLECT)
#undef PERFBENCH_COLLECT
  if (Only.empty())
    return All;
  std::vector<bench::SuiteTable> Picked;
  for (const std::string &Name : Only)
    for (const bench::SuiteTable &T : All)
      if (T.Name == Name)
        Picked.push_back(T);
  return Picked;
}

/// bsched-suite's collectJobs: every table's grid, deduplicated by key in
/// first-occurrence order.
std::vector<driver::ExperimentJob>
uniqueJobs(const std::vector<bench::SuiteTable> &Tables) {
  std::vector<driver::ExperimentJob> Unique;
  std::unordered_set<std::string> Seen;
  for (const bench::SuiteTable &T : Tables)
    for (driver::ExperimentJob &J : T.Jobs())
      if (Seen.insert(driver::resultKey(*J.W, J.Opts, J.Machine)).second)
        Unique.push_back(std::move(J));
  return Unique;
}

/// Runs \p Run with stdout redirected into an anonymous in-memory file.
int captureTable(int (*Run)(), std::string &Out) {
  Out.clear();
  std::fflush(stdout);
  int Saved = ::dup(STDOUT_FILENO);
  int Fd = ::memfd_create("perfbench-table", 0);
  if (Saved < 0 || Fd < 0 || ::dup2(Fd, STDOUT_FILENO) < 0) {
    if (Saved >= 0)
      ::close(Saved);
    if (Fd >= 0)
      ::close(Fd);
    return -1;
  }
  int Rc = Run();
  std::fflush(stdout);
  ::dup2(Saved, STDOUT_FILENO);
  ::close(Saved);
  off_t Len = ::lseek(Fd, 0, SEEK_END);
  if (Len > 0) {
    Out.resize(static_cast<size_t>(Len));
    ssize_t Got = ::pread(Fd, Out.data(), Out.size(), 0);
    Out.resize(Got > 0 ? static_cast<size_t>(Got) : 0);
  }
  ::close(Fd);
  return Rc;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  Out = Ss.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Bytes;
  return static_cast<bool>(Out);
}

std::string encodeSim(const sim::SimResult &S) {
  ByteWriter W;
  driver::encode(W, S);
  return W.buffer();
}

/// The checks on one job's result that need no recomputation. Returns the
/// first violated property, or "" when all hold.
std::string checkResult(const driver::RunResult &R, uint64_t OracleChecksum,
                        const sim::MachineConfig &M) {
  if (!R.ok())
    return "run failed: " + R.Error;
  const sim::SimResult &S = R.Sim;
  if (!S.Finished)
    return "simulation did not finish";
  if (S.Checksum != OracleChecksum)
    return "simulated checksum differs from lang::evalProgram's";
  uint64_t Instrs = S.Counts.total();
  if (M.IssueWidth == 1) {
    uint64_t Stalls = S.LoadInterlockCycles + S.FixedInterlockCycles +
                      S.ICacheStallCycles + S.ITlbStallCycles +
                      S.DTlbStallCycles + S.BranchPenaltyCycles +
                      S.MshrStallCycles + S.WriteBufferStallCycles;
    if (S.Cycles != Instrs + Stalls)
      return "cycles != instructions + stall cycles at issue width 1";
  }
  if (S.Cycles * M.IssueWidth < Instrs)
    return "cycles x issue width < instructions";
  const sim::CacheStats *Levels[] = {&S.L1D, &S.L1I, &S.L2, &S.L3};
  for (const sim::CacheStats *C : Levels)
    if (C->Misses > C->Accesses)
      return "cache misses > accesses";
  return "";
}

} // namespace

int perfbench::runRepro(const Args &A) {
  const bool Warm = A.Mode == "repro-warm";
  double LoadBefore = loadAverage1();
  Round Rd;

  // --- Set-up (timed, repeated) ---------------------------------------------
  std::vector<bench::SuiteTable> Tables;
  std::vector<driver::ExperimentJob> Jobs;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    uint64_t T0 = nowNs();
    Tables = selectTables(A.Tables);
    Jobs = uniqueJobs(Tables);
    driver::setArtifactStoreDir(A.Store);
    Rd.SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  if (Tables.empty() || Jobs.empty()) {
    std::fprintf(stderr, "perfbench: no tables or jobs selected\n");
    return 2;
  }
  const size_t N = Jobs.size();

  // --- Dispatch (timed) -----------------------------------------------------
  if (A.Traced)
    enableSpans();
  driver::ResultCacheStats Mem0 = driver::resultCacheStats();
  driver::ArtifactStoreStats Disk0 = driver::artifactStoreStats();
  driver::ProfileCacheStats Prof0 = driver::profileCacheStats();

  std::vector<driver::RunResult> Owned(A.Traced ? N : 0);
  std::vector<const driver::RunResult *> Results(N, nullptr);
  Rd.LatMs.assign(N, 0.0);
  constexpr unsigned MaxSlots = 256;
  std::atomic<uint64_t> BusyNs[MaxSlots] = {};
  std::atomic<unsigned> NextSlot{0};

  double Steal0 = stealSeconds();
  double Cpu0 = processCpuSeconds();
  uint64_t T0 = nowNs();
  ThreadPool::parallelForChunked(
      A.Workers, N,
      [&](size_t I) {
        thread_local unsigned Slot = NextSlot.fetch_add(1) % MaxSlots;
        const driver::ExperimentJob &J = Jobs[I];
        uint64_t S = nowNs();
        if (A.Traced) {
          setSpanJob(static_cast<uint32_t>(I));
          Owned[I] = tracedRunCached(*J.W, J.Opts, J.Machine);
          Results[I] = &Owned[I];
        } else {
          Results[I] = &driver::runCached(*J.W, J.Opts, J.Machine);
        }
        uint64_t E = nowNs();
        Rd.LatMs[I] = static_cast<double>(E - S) / 1e6;
        BusyNs[Slot] += E - S;
      },
      ChunkPolicy::Guided);
  uint64_t T1 = nowNs();
  double Cpu1 = processCpuSeconds();

  // Traced: fill the memory tier the replica bypassed (untimed, and its
  // store/profile counter traffic is left out of the layer counts).
  driver::ArtifactStoreStats DiskPrime0 = driver::artifactStoreStats();
  driver::ProfileCacheStats ProfPrime0 = driver::profileCacheStats();
  if (A.Traced)
    driver::runAll(Jobs, A.Workers);
  driver::ArtifactStoreStats DiskPrime1 = driver::artifactStoreStats();
  driver::ProfileCacheStats ProfPrime1 = driver::profileCacheStats();

  // --- Emit (timed) ---------------------------------------------------------
  std::vector<std::string> Outputs(Tables.size());
  std::vector<int> Rcs(Tables.size(), 0);
  double Cpu2 = processCpuSeconds();
  uint64_t T2 = nowNs();
  for (size_t I = 0; I != Tables.size(); ++I) {
    ScopedSpan S("suite.emit");
    Rcs[I] = captureTable(Tables[I].Run, Outputs[I]);
  }
  uint64_t T3 = nowNs();
  double Cpu3 = processCpuSeconds();
  double Steal3 = stealSeconds();

  double DispatchMs = static_cast<double>(T1 - T0) / 1e6;
  double EmitMs = static_cast<double>(T3 - T2) / 1e6;
  Rd.WallS.push_back((DispatchMs + EmitMs) / 1e3);
  Rd.CpuS.push_back((Cpu1 - Cpu0) + (Cpu3 - Cpu2));
  Rd.StealShare.push_back((Steal3 - Steal0) /
                          (static_cast<double>(T3 - T0) / 1e9 *
                           std::thread::hardware_concurrency()));
  Rd.Attempted = N + Tables.size();

  if (A.Traced) {
    Layers &L = Rd.PerLayer;
    addSpanLayers(L);
    driver::ResultCacheStats Mem1 = driver::resultCacheStats();
    driver::ArtifactStoreStats Disk1 = driver::artifactStoreStats();
    driver::ProfileCacheStats Prof1 = driver::profileCacheStats();
    auto Delta = [](uint64_t End, uint64_t PrimeEnd, uint64_t PrimeStart,
                    uint64_t Start) {
      return static_cast<double>((End - PrimeEnd) + (PrimeStart - Start));
    };
    L["driver.mem_hits"] = static_cast<double>(Mem1.Hits - Mem0.Hits);
    L["driver.mem_misses"] = static_cast<double>(Mem1.Misses - Mem0.Misses);
    L["driver.inflight_waits"] =
        static_cast<double>(Mem1.InFlightWaits - Mem0.InFlightWaits);
    L["driver.disk_hits"] = Delta(Disk1.DiskHits, DiskPrime1.DiskHits,
                                  DiskPrime0.DiskHits, Disk0.DiskHits);
    L["driver.disk_writes"] = Delta(Disk1.Writes, DiskPrime1.Writes,
                                    DiskPrime0.Writes, Disk0.Writes);
    auto Rejected = [](const driver::ArtifactStoreStats &S) {
      return S.CorruptRejected + S.VersionRejected + S.KeyRejected;
    };
    L["driver.disk_rejected"] = Delta(Rejected(Disk1), Rejected(DiskPrime1),
                                      Rejected(DiskPrime0), Rejected(Disk0));
    L["driver.profile_hits"] =
        Delta(Prof1.Hits, ProfPrime1.Hits, ProfPrime0.Hits, Prof0.Hits);
    L["driver.profile_misses"] =
        Delta(Prof1.Misses, ProfPrime1.Misses, ProfPrime0.Misses, Prof0.Misses);
    L["suite.dispatch_ms"] = DispatchMs;
    double Busy = 0;
    for (const std::atomic<uint64_t> &B : BusyNs)
      Busy += static_cast<double>(B.load()) / 1e6;
    L["support.worker_busy_ms"] = Busy;
    L["support.worker_idle_ms"] = std::max(0.0, A.Workers * DispatchMs - Busy);
    L["bench.span_coverage"] =
        L["bench.root_span_ms"] / (A.Workers * DispatchMs + EmitMs);
    if (!A.TraceOut.empty() && !writeSpans(A.TraceOut))
      std::fprintf(stderr, "perfbench: cannot write %s\n", A.TraceOut.c_str());
  }

  // --- Checks (untimed) -----------------------------------------------------
  std::vector<std::string> JobFailure(N);

  // The AST oracle, once per distinct workload.
  std::vector<const driver::Workload *> Programs;
  for (const driver::ExperimentJob &J : Jobs)
    if (std::find(Programs.begin(), Programs.end(), J.W) == Programs.end())
      Programs.push_back(J.W);
  std::vector<uint64_t> OracleSum(Programs.size(), 0);
  ThreadPool::parallelForChunked(A.Workers, Programs.size(), [&](size_t I) {
    lang::EvalResult E = lang::evalProgram(driver::parseWorkload(*Programs[I]));
    OracleSum[I] = E.ok() ? E.Checksum : ~0ull;
  });
  std::unordered_map<const driver::Workload *, uint64_t> Oracle;
  for (size_t I = 0; I != Programs.size(); ++I)
    Oracle[Programs[I]] = OracleSum[I];

  // The planted faults of the self-test land on the first width-1 job.
  size_t PlantJob = 0;
  while (PlantJob + 1 < N && Jobs[PlantJob].Machine.IssueWidth != 1)
    ++PlantJob;

  ThreadPool::parallelForChunked(A.Workers, N, [&](size_t I) {
    const driver::ExperimentJob &J = Jobs[I];
    driver::RunResult R = *Results[I];
    if (I == PlantJob && A.Plant == "checksum")
      R.Sim.Checksum ^= 1;
    if (I == PlantJob && A.Plant == "cycles")
      R.Sim.Cycles += 1;
    std::string Why = checkResult(R, Oracle[J.W], J.Machine);
    // A seeded fifth of the jobs: recompile and re-simulate on the other
    // simulator core; every SimResult field must agree.
    if (Why.empty() && R.ok() && mix64(A.Seed * 1000003 + I) % 5 == 0) {
      driver::CompileResult C =
          driver::compileProgram(driver::parseWorkload(*J.W), J.Opts);
      sim::MachineConfig Other = J.Machine;
      Other.Impl = Other.Impl == sim::SimImpl::Fast ? sim::SimImpl::Reference
                                                    : sim::SimImpl::Fast;
      if (!C.ok())
        Why = "recompile for the reference simulator failed: " + C.Error;
      else if (encodeSim(sim::simulate(C.M, Other)) != encodeSim(R.Sim))
        Why = "reference simulator disagrees";
    }
    if (Why.empty() && A.Traced &&
        stableBytes(R) !=
            stableBytes(driver::runWorkload(*J.W, J.Opts, J.Machine)))
      Why = "traced replica differs from driver::runWorkload";
    if (!Why.empty())
      JobFailure[I] = J.W->Name + std::string(" [") + J.Opts.tag() + "]: " + Why;
  });
  for (std::string &F : JobFailure)
    if (!F.empty())
      Rd.Failures.push_back("job " + std::move(F));

  // Tables: every Run() succeeds; warm bytes equal the filling pass's.
  if (A.Plant == "table-byte") {
    for (std::string &Out : Outputs)
      if (!Out.empty()) {
        Out[Out.size() / 2] ^= 1;
        break;
      }
  }
  for (size_t I = 0; I != Tables.size(); ++I) {
    const std::string &Name = Tables[I].Name;
    std::string Path = A.TablesDir + "/" + Name + ".txt";
    if (Rcs[I] != 0) {
      Rd.Failures.push_back("table " + Name + ": Run() returned " +
                            std::to_string(Rcs[I]));
    } else if (Warm) {
      std::string Cold;
      if (!readFile(Path, Cold))
        Rd.Failures.push_back("table " + Name + ": no cold bytes at " + Path);
      else if (Cold != Outputs[I])
        Rd.Failures.push_back("table " + Name +
                              ": warm bytes differ from the cold pass");
    } else if (!A.TablesDir.empty() && !writeFile(Path, Outputs[I])) {
      Rd.Failures.push_back("table " + Name + ": cannot write " + Path);
    }
  }

  printRound(A, Rd, LoadBefore);
  return 0;
}
