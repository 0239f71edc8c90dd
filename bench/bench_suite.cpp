//===- bench/bench_suite.cpp - Unified experiment suite runner -------------===//
//
// bsched-suite: the one entry point for regenerating the paper's tables and
// ablations (`bsched-suite [--tables NAME]`). It runs any subset of the
// tables in one process over one shared result cache. The cross-table
// (workload, options, machine) overlap is deduplicated by runCached key
// before dispatch, the unique jobs fan out over
// ThreadPool::parallelForChunked (guided — the mix of microsecond compiles
// and multi-second simulations is exactly the non-uniform-duration case
// guided self-scheduling serves), and each table's emitter then assembles
// its output from the warm cache. With a persistent
// artifact store configured (--store or BSCHED_ARTIFACT_DIR), results
// outlive the process: a warm re-run deserializes instead of recomputing.
//
// Output contract: every table's bytes are the same for any thread count,
// any table subset beside it, cold or warm store (suite_test asserts this;
// --measure checks cold against warm on every run).
//
// Usage:
//   --list                   list registered tables and exit
//   --tables a,b,c           run this subset (default: every table)
//   --quick                  cheap CI subset (table1, table4, table5)
//   --threads N              warmup fan-out threads (0 = one per hw thread)
//   --store DIR              artifact store directory
//   --measure                forced-cold pass (disk reads off) then warm
//                            pass (memory cleared, disk reads on); records
//                            both and checks the outputs byte-identical
//   --json PATH              suite JSON (default: BENCH_suite.json)
//   --out-dir DIR            also write per-table <name>.txt / <name>.json
//   --min-disk-hit-rate X    gate: warm-pass disk hit rate floor (measure)
//   --min-warm-speedup X     gate: cold/warm wall-time floor (measure)
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Suite.h"

#include "driver/ArtifactStore.h"
#include "driver/ProfileCache.h"
#include "support/Serialize.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <unordered_set>
#include <vector>

using namespace bsched;
using namespace bsched::bench;

BSCHED_SUITE_ALL_TABLES(BSCHED_SUITE_DECLARE)

namespace {

/// CPU time of every thread of this process so far, in seconds.
double processCpuS() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) / 1e9;
}

/// Wall and CPU cost of one runPass, plus the oracle memo's counter moves.
struct PassCost {
  uint64_t WallNs = 0;
  double CpuS = 0.0;
  driver::OracleCacheStats Oracle;
};

std::vector<SuiteTable> allTables() {
  std::vector<SuiteTable> Tables;
#define BSCHED_SUITE_COLLECT(NAME) Tables.push_back(bsched_suite_table_##NAME());
  BSCHED_SUITE_ALL_TABLES(BSCHED_SUITE_COLLECT)
#undef BSCHED_SUITE_COLLECT
  return Tables;
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Parts;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma != Pos)
      Parts.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Parts;
}

struct TableRun {
  SuiteTable T;
  size_t JobCount = 0;       ///< jobs the table registered.
  size_t UniqueContributed = 0; ///< of those, first seen at this table.
  std::string Output;        ///< captured run() bytes.
  uint64_t RunNs = 0;        ///< serial emit time (cache-hit assembly).
  int ExitCode = 0;
};

/// Dedups every selected table's grid by runCached key, preserving first-
/// occurrence order, and records per-table contribution counts.
std::vector<driver::ExperimentJob> collectJobs(std::vector<TableRun> &Tables,
                                               size_t &TotalJobs) {
  std::vector<driver::ExperimentJob> Unique;
  std::unordered_set<std::string> Seen;
  TotalJobs = 0;
  for (TableRun &TR : Tables) {
    std::vector<driver::ExperimentJob> Jobs = TR.T.Jobs();
    TR.JobCount = Jobs.size();
    TotalJobs += Jobs.size();
    for (driver::ExperimentJob &J : Jobs) {
      std::string Key = driver::resultKey(*J.W, J.Opts, J.Machine);
      if (Seen.insert(std::move(Key)).second) {
        ++TR.UniqueContributed;
        Unique.push_back(std::move(J));
      }
    }
  }
  return Unique;
}

/// One full pass: fan the deduped grid out on the pool, then assemble every
/// table serially with stdout captured.
PassCost runPass(std::vector<TableRun> &Tables,
                 const std::vector<driver::ExperimentJob> &Unique,
                 unsigned Threads, bool &AnyFailed) {
  driver::OracleCacheStats Oracle0 = driver::oracleCacheStats();
  double Cpu0 = processCpuS();
  uint64_t T0 = nowNs();
  driver::runAll(Unique, Threads);
  for (TableRun &TR : Tables) {
    static TableRun *Current; // captureStdout takes a plain fn ptr.
    Current = &TR;
    uint64_t R0 = nowNs();
    TR.ExitCode = captureStdout([] { return Current->T.Run(); }, TR.Output);
    TR.RunNs = nowNs() - R0;
    if (TR.ExitCode != 0)
      AnyFailed = true;
  }
  PassCost C;
  C.WallNs = nowNs() - T0;
  C.CpuS = processCpuS() - Cpu0;
  C.Oracle = driver::oracleCacheStats() - Oracle0;
  return C;
}

void clearMemoryCaches() {
  driver::clearResultCache();
  driver::clearProfileCache();
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Selected;
  bool Quick = false, List = false, Measure = false;
  unsigned Threads = 0;
  std::string StoreDir, JsonPath = "BENCH_suite.json", OutDir;
  double MinDiskHitRate = 0.0, MinWarmSpeedup = 0.0;

  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--list"))
      List = true;
    else if (!std::strcmp(argv[I], "--quick"))
      Quick = true;
    else if (!std::strcmp(argv[I], "--measure"))
      Measure = true;
    else if (!std::strcmp(argv[I], "--tables") && I + 1 != argc)
      Selected = splitList(argv[++I]);
    else if (!std::strcmp(argv[I], "--threads") && I + 1 != argc)
      Threads = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--store") && I + 1 != argc)
      StoreDir = argv[++I];
    else if (!std::strcmp(argv[I], "--json") && I + 1 != argc)
      JsonPath = argv[++I];
    else if (!std::strcmp(argv[I], "--out-dir") && I + 1 != argc)
      OutDir = argv[++I];
    else if (!std::strcmp(argv[I], "--min-disk-hit-rate") && I + 1 != argc)
      MinDiskHitRate = std::atof(argv[++I]);
    else if (!std::strcmp(argv[I], "--min-warm-speedup") && I + 1 != argc)
      MinWarmSpeedup = std::atof(argv[++I]);
    else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[I]);
      return 2;
    }
  }

  std::vector<SuiteTable> Registry = allTables();
  if (List) {
    for (const SuiteTable &T : Registry)
      std::printf("%-24s %s\n", T.Name.c_str(), T.Title.c_str());
    return 0;
  }

  if (Quick && Selected.empty())
    Selected = {"table1_workload", "table4_unroll_bs", "table5_bs_vs_ts"};

  std::vector<TableRun> Tables;
  if (Selected.empty()) {
    for (SuiteTable &T : Registry) {
      TableRun TR;
      TR.T = T;
      Tables.push_back(std::move(TR));
    }
  } else {
    for (const std::string &Name : Selected) {
      bool Found = false;
      for (SuiteTable &T : Registry)
        if (T.Name == Name) {
          TableRun TR;
          TR.T = T;
          Tables.push_back(std::move(TR));
          Found = true;
          break;
        }
      if (!Found) {
        std::fprintf(stderr, "unknown table: %s (try --list)\n", Name.c_str());
        return 2;
      }
    }
  }

  if (!StoreDir.empty())
    driver::setArtifactStoreDir(StoreDir);
  if (Measure && !driver::artifactStoreEnabled()) {
    std::fprintf(stderr,
                 "--measure needs a persistent store: pass --store DIR or "
                 "set BSCHED_ARTIFACT_DIR\n");
    return 2;
  }

  size_t TotalJobs = 0;
  std::vector<driver::ExperimentJob> Unique = collectJobs(Tables, TotalJobs);

  bool AnyFailed = false;
  PassCost Cold, Warm;
  driver::ArtifactStoreStats ColdStore, WarmStore;
  driver::ResultCacheStats CacheBefore = driver::resultCacheStats();
  bool PassesIdentical = true;

  if (Measure) {
    // Forced-cold pass: disk reads off (an already-warm store must not
    // flatter the cold number), write-back on, memory caches empty.
    std::vector<std::string> ColdOutputs;
    clearMemoryCaches();
    driver::resetArtifactStoreStats();
    driver::setArtifactStoreReads(false);
    Cold = runPass(Tables, Unique, Threads, AnyFailed);
    ColdStore = driver::artifactStoreStats();
    for (TableRun &TR : Tables)
      ColdOutputs.push_back(std::move(TR.Output));

    // Warm pass: memory caches cleared again, so every hit is the disk
    // tier's — deserialization standing in for recomputation.
    clearMemoryCaches();
    driver::resetArtifactStoreStats();
    driver::setArtifactStoreReads(true);
    Warm = runPass(Tables, Unique, Threads, AnyFailed);
    WarmStore = driver::artifactStoreStats();

    for (size_t I = 0; I != Tables.size(); ++I)
      if (Tables[I].Output != ColdOutputs[I]) {
        PassesIdentical = false;
        std::fprintf(stderr,
                     "SUITE: table %s produced different bytes cold vs "
                     "warm-from-store\n",
                     Tables[I].T.Name.c_str());
      }
  } else {
    Cold = runPass(Tables, Unique, Threads, AnyFailed);
    ColdStore = driver::artifactStoreStats();
  }
  driver::ResultCacheStats Cache = driver::resultCacheStats() - CacheBefore;

  // Emit every table's captured bytes in order.
  for (const TableRun &TR : Tables)
    std::fwrite(TR.Output.data(), 1, TR.Output.size(), stdout);

  size_t Saved = TotalJobs - Unique.size();
  std::fprintf(stderr, "suite: %zu tables, %zu jobs, %zu unique (%zu deduped)",
               Tables.size(), TotalJobs, Unique.size(), Saved);
  std::fprintf(stderr, ", cold %.2fs (cpu %.2fs)",
               static_cast<double>(Cold.WallNs) / 1e9, Cold.CpuS);
  if (Measure)
    std::fprintf(stderr, ", warm %.2fs (cpu %.2fs, %.1fx)",
                 static_cast<double>(Warm.WallNs) / 1e9, Warm.CpuS,
                 Warm.WallNs ? static_cast<double>(Cold.WallNs) /
                                   static_cast<double>(Warm.WallNs)
                             : 0.0);
  std::fprintf(stderr, ", %llu oracle evaluations\n",
               static_cast<unsigned long long>(Cold.Oracle.Misses +
                                               Warm.Oracle.Misses));

  // --- Per-table artifacts --------------------------------------------------
  if (!OutDir.empty()) {
    std::string MkCmd = "mkdir -p '" + OutDir + "'";
    if (std::system(MkCmd.c_str()) != 0)
      std::fprintf(stderr, "suite: cannot create %s\n", OutDir.c_str());
    for (const TableRun &TR : Tables) {
      std::string TxtPath = OutDir + "/" + TR.T.Name + ".txt";
      if (std::FILE *F = std::fopen(TxtPath.c_str(), "w")) {
        std::fwrite(TR.Output.data(), 1, TR.Output.size(), F);
        std::fclose(F);
      }
      std::string JPath = OutDir + "/" + TR.T.Name + ".json";
      if (std::FILE *F = std::fopen(JPath.c_str(), "w")) {
        std::fprintf(F,
                     "{\n  \"name\": \"%s\",\n  \"title\": \"%s\",\n"
                     "  \"jobs\": %zu,\n  \"unique_contributed\": %zu,\n"
                     "  \"output_bytes\": %zu,\n  \"output_fnv\": \"%016llx\",\n"
                     "  \"emit_ms\": %.3f\n}\n",
                     TR.T.Name.c_str(), jsonEscape(TR.T.Title).c_str(),
                     TR.JobCount, TR.UniqueContributed, TR.Output.size(),
                     static_cast<unsigned long long>(fnv1a(TR.Output)),
                     static_cast<double>(TR.RunNs) / 1e6);
        std::fclose(F);
      }
    }
  }

  // --- Suite JSON -----------------------------------------------------------
  double WarmSpeedup =
      (Measure && Warm.WallNs)
          ? static_cast<double>(Cold.WallNs) / static_cast<double>(Warm.WallNs)
          : 0.0;
  uint64_t WarmReads = WarmStore.DiskHits + WarmStore.DiskMisses +
                       WarmStore.CorruptRejected + WarmStore.VersionRejected +
                       WarmStore.KeyRejected;
  double DiskHitRate =
      WarmReads ? static_cast<double>(WarmStore.DiskHits) /
                      static_cast<double>(WarmReads)
                : 0.0;

  if (std::FILE *J = std::fopen(JsonPath.c_str(), "w")) {
    std::fprintf(J, "{\n");
    std::fprintf(J, "  \"version\": 3,\n");
    std::fprintf(J, "  \"quick\": %s,\n", Quick ? "true" : "false");
    std::fprintf(J, "  \"measure\": %s,\n", Measure ? "true" : "false");
    std::fprintf(J, "  \"threads\": %u,\n", Threads);
    std::fprintf(J, "  \"store_enabled\": %s,\n",
                 driver::artifactStoreEnabled() ? "true" : "false");
    std::fprintf(J, "  \"tables\": [\n");
    for (size_t I = 0; I != Tables.size(); ++I) {
      const TableRun &TR = Tables[I];
      std::fprintf(J,
                   "    {\"name\": \"%s\", \"jobs\": %zu, "
                   "\"unique_contributed\": %zu, \"output_bytes\": %zu, "
                   "\"output_fnv\": \"%016llx\", \"emit_ms\": %.3f}%s\n",
                   TR.T.Name.c_str(), TR.JobCount, TR.UniqueContributed,
                   TR.Output.size(),
                   static_cast<unsigned long long>(fnv1a(TR.Output)),
                   static_cast<double>(TR.RunNs) / 1e6,
                   I + 1 == Tables.size() ? "" : ",");
    }
    std::fprintf(J, "  ],\n");
    std::fprintf(J, "  \"jobs_total\": %zu,\n", TotalJobs);
    std::fprintf(J, "  \"jobs_unique\": %zu,\n", Unique.size());
    std::fprintf(J, "  \"jobs_deduped\": %zu,\n", Saved);
    std::fprintf(J,
                 "  \"result_cache\": {\"hits\": %llu, \"misses\": %llu, "
                 "\"in_flight_waits\": %llu},\n",
                 static_cast<unsigned long long>(Cache.Hits),
                 static_cast<unsigned long long>(Cache.Misses),
                 static_cast<unsigned long long>(Cache.InFlightWaits));
    auto StoreJson = [&](const char *Name,
                         const driver::ArtifactStoreStats &S) {
      std::fprintf(J,
                   "  \"%s\": {\"disk_hits\": %llu, \"disk_misses\": %llu, "
                   "\"writes\": %llu, \"write_failures\": %llu, "
                   "\"corrupt_rejected\": %llu, \"version_rejected\": %llu, "
                   "\"key_rejected\": %llu},\n",
                   Name, static_cast<unsigned long long>(S.DiskHits),
                   static_cast<unsigned long long>(S.DiskMisses),
                   static_cast<unsigned long long>(S.Writes),
                   static_cast<unsigned long long>(S.WriteFailures),
                   static_cast<unsigned long long>(S.CorruptRejected),
                   static_cast<unsigned long long>(S.VersionRejected),
                   static_cast<unsigned long long>(S.KeyRejected));
    };
    auto OracleJson = [&](const char *Name, const driver::OracleCacheStats &S) {
      std::fprintf(J,
                   "  \"%s\": {\"evaluations\": %llu, \"hits\": %llu, "
                   "\"in_flight_waits\": %llu},\n",
                   Name, static_cast<unsigned long long>(S.Misses),
                   static_cast<unsigned long long>(S.Hits),
                   static_cast<unsigned long long>(S.InFlightWaits));
    };
    if (Measure) {
      StoreJson("store_cold", ColdStore);
      StoreJson("store_warm", WarmStore);
      OracleJson("oracle_cold", Cold.Oracle);
      OracleJson("oracle_warm", Warm.Oracle);
      std::fprintf(J, "  \"cold_ms\": %.3f,\n",
                   static_cast<double>(Cold.WallNs) / 1e6);
      std::fprintf(J, "  \"cold_cpu_s\": %.3f,\n", Cold.CpuS);
      std::fprintf(J, "  \"warm_ms\": %.3f,\n",
                   static_cast<double>(Warm.WallNs) / 1e6);
      std::fprintf(J, "  \"warm_cpu_s\": %.3f,\n", Warm.CpuS);
      std::fprintf(J, "  \"warm_speedup\": %.3f,\n", WarmSpeedup);
      std::fprintf(J, "  \"disk_hit_rate\": %.4f,\n", DiskHitRate);
      std::fprintf(J, "  \"passes_identical\": %s\n",
                   PassesIdentical ? "true" : "false");
    } else {
      StoreJson("store", ColdStore);
      OracleJson("oracle", Cold.Oracle);
      std::fprintf(J, "  \"wall_ms\": %.3f,\n",
                   static_cast<double>(Cold.WallNs) / 1e6);
      std::fprintf(J, "  \"cpu_s\": %.3f\n", Cold.CpuS);
    }
    std::fprintf(J, "}\n");
    std::fclose(J);
  } else {
    std::fprintf(stderr, "suite: cannot write %s\n", JsonPath.c_str());
    return 1;
  }

  // --- Gates ----------------------------------------------------------------
  int Rc = 0;
  if (AnyFailed) {
    std::fprintf(stderr, "SUITE FAILED: a table emitter returned nonzero\n");
    Rc = 1;
  }
  if (!PassesIdentical) {
    std::fprintf(stderr,
                 "SUITE GATE FAILED: cold and warm outputs differ\n");
    Rc = 1;
  }
  if (Measure && MinDiskHitRate > 0 && DiskHitRate < MinDiskHitRate) {
    std::fprintf(stderr,
                 "SUITE GATE FAILED: disk hit rate %.3f < floor %.3f\n",
                 DiskHitRate, MinDiskHitRate);
    Rc = 1;
  }
  if (Measure && MinWarmSpeedup > 0 && WarmSpeedup < MinWarmSpeedup) {
    std::fprintf(stderr,
                 "SUITE GATE FAILED: warm speedup %.2fx < floor %.2fx\n",
                 WarmSpeedup, MinWarmSpeedup);
    Rc = 1;
  }
  return Rc;
}
