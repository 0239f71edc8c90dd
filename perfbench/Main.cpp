//===- perfbench/Main.cpp - bsched-perfbench entry point --------------------===//
//
// One round of one benchmark workload per process:
//
//   bsched-perfbench repro-cold     --store DIR [--tables-dir DIR] ...
//   bsched-perfbench repro-warm     --store DIR  --tables-dir DIR  ...
//   bsched-perfbench compile-stream [--seconds S] ...
//
// Common options: --seed N, --workers N, --traced, --trace-out FILE,
// --tables a,b (table subset), --plant FAULT (the self-test's planted
// faults: checksum, cycles, table-byte, interp-checksum).
//
// The last line of standard output is the round's JSON report (see
// printRound); failures are also listed on standard error.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;

double perfbench::processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

double perfbench::threadCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) / 1e9;
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

double perfbench::loadAverage1() {
  double L[1] = {0};
  return getloadavg(L, 1) == 1 ? L[0] : -1.0;
}

double perfbench::stealSeconds() {
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return 0;
  unsigned long long V[8] = {};
  int Got = std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                        &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]);
  std::fclose(F);
  long Hz = sysconf(_SC_CLK_TCK);
  return Got == 8 && Hz > 0 ? static_cast<double>(V[7]) / Hz : 0.0;
}

uint64_t perfbench::mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

namespace {

std::string jsonQuote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// One-line JSON object builder for the per-process report.
class JsonLine {
public:
  void num(const std::string &Key, double V);
  void nums(const std::string &Key, const std::vector<double> &Vs);
  void str(const std::string &Key, const std::string &V);
  void strs(const std::string &Key, const std::vector<std::string> &Vs);
  void layers(const std::string &Key, const Layers &L);
  /// The finished object, without a trailing newline.
  std::string text() const { return "{" + Body + "}"; }

private:
  void key(const std::string &Key);
  std::string Body;
};

void JsonLine::key(const std::string &Key) {
  if (!Body.empty())
    Body += ", ";
  Body += jsonQuote(Key) + ": ";
}

void JsonLine::num(const std::string &Key, double V) {
  key(Key);
  Body += number(V);
}

void JsonLine::nums(const std::string &Key, const std::vector<double> &Vs) {
  key(Key);
  Body += "[";
  for (size_t I = 0; I != Vs.size(); ++I)
    Body += (I ? "," : "") + number(Vs[I]);
  Body += "]";
}

void JsonLine::str(const std::string &Key, const std::string &V) {
  key(Key);
  Body += jsonQuote(V);
}

void JsonLine::strs(const std::string &Key,
                    const std::vector<std::string> &Vs) {
  key(Key);
  Body += "[";
  for (size_t I = 0; I != Vs.size(); ++I)
    Body += (I ? ", " : "") + jsonQuote(Vs[I]);
  Body += "]";
}

void JsonLine::layers(const std::string &Key, const Layers &L) {
  key(Key);
  Body += "{";
  bool First = true;
  for (const auto &[Name, V] : L) {
    Body += (First ? "" : ", ") + jsonQuote(Name) + ": " + number(V);
    First = false;
  }
  Body += "}";
}

} // namespace

void perfbench::printRound(const Args &A, const Round &R, double LoadBefore) {
  for (const std::string &F : R.Failures)
    std::fprintf(stderr, "FAILED: %s\n", F.c_str());
  JsonLine J;
  J.str("mode", A.Mode);
  J.num("seed", static_cast<double>(A.Seed));
  J.num("workers", A.Workers);
  J.num("traced", A.Traced ? 1 : 0);
  J.nums("setup_s", R.SetupS);
  J.nums("wall_s", R.WallS);
  J.nums("cpu_s", R.CpuS);
  J.nums("steal_share", R.StealShare);
  J.num("peak_rss_mb", peakRssMb());
  J.num("attempted", static_cast<double>(R.Attempted));
  J.num("failed", static_cast<double>(R.Failures.size()));
  J.strs("failures", R.Failures);
  J.num("nproc", std::thread::hardware_concurrency());
  J.num("loadavg_before", LoadBefore);
  J.num("loadavg_after", loadAverage1());
  J.layers("layers", R.PerLayer);
  J.nums("lat_ms", R.LatMs);
  std::fflush(stdout);
  std::printf("%s\n", J.text().c_str());
  std::fflush(stdout);
}

namespace {

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

int usage(const char *Why) {
  std::fprintf(stderr,
               "bsched-perfbench: %s\n"
               "usage: bsched-perfbench repro-cold|repro-warm|compile-stream "
               "[--seed N] [--workers N] [--store DIR] [--tables-dir DIR] "
               "[--tables a,b] [--seconds S] [--traced] [--trace-out FILE] "
               "[--plant FAULT]\n",
               Why);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage("missing workload");
  Args A;
  A.Mode = argv[1];
  for (int I = 2; I != argc; ++I) {
    std::string Arg = argv[I];
    bool HasValue = I + 1 != argc;
    if (Arg == "--traced")
      A.Traced = true;
    else if (!HasValue)
      return usage(("missing value for " + Arg).c_str());
    else if (Arg == "--seed")
      A.Seed = std::strtoull(argv[++I], nullptr, 10);
    else if (Arg == "--workers")
      A.Workers = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (Arg == "--store")
      A.Store = argv[++I];
    else if (Arg == "--tables-dir")
      A.TablesDir = argv[++I];
    else if (Arg == "--tables")
      A.Tables = splitList(argv[++I]);
    else if (Arg == "--seconds")
      A.Seconds = std::atof(argv[++I]);
    else if (Arg == "--trace-out")
      A.TraceOut = argv[++I];
    else if (Arg == "--plant")
      A.Plant = argv[++I];
    else
      return usage(("unknown argument " + Arg).c_str());
  }
  if (A.Workers == 0 || A.Workers > 64)
    return usage("--workers must be 1 to 64");
  if (!A.Plant.empty() && A.Plant != "checksum" && A.Plant != "cycles" &&
      A.Plant != "table-byte" && A.Plant != "interp-checksum")
    return usage(("unknown fault " + A.Plant).c_str());
  if (A.Mode == "repro-cold" || A.Mode == "repro-warm") {
    if (A.Store.empty())
      return usage("repro workloads need --store");
    if (A.Mode == "repro-warm" && A.TablesDir.empty())
      return usage("repro-warm needs --tables-dir from the filling pass");
    return runRepro(A);
  }
  if (A.Mode == "compile-stream")
    return runStream(A);
  return usage(("unknown workload " + A.Mode).c_str());
}
