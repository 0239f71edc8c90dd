//===- bench/BaselineGate.cpp - Throughput floors from a baseline file -----===//

#include "BaselineGate.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>
#include <vector>

using namespace bsched;

namespace {

std::vector<std::pair<std::string, double>>
readBaseline(const std::string &Path) {
  std::vector<std::pair<std::string, double>> Entries;
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "FATAL: cannot read baseline %s\n", Path.c_str());
    std::exit(1);
  }
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Q0 = Line.find('"');
    if (Q0 == std::string::npos)
      continue;
    size_t Q1 = Line.find('"', Q0 + 1);
    if (Q1 == std::string::npos)
      continue;
    std::string Tag = Line.substr(Q0 + 1, Q1 - Q0 - 1);
    size_t Colon = Line.find(':', Q1);
    if (Colon == std::string::npos || Tag == "schema" ||
        Tag == "min_instrs_per_sec" || Tag == "min_speedup")
      continue;
    double V = std::atof(Line.c_str() + Colon + 1);
    if (V > 0)
      Entries.emplace_back(Tag, V);
  }
  return Entries;
}

} // namespace

bool bench::passesBaselineGate(
    const std::string &Path,
    const std::function<std::optional<double>(const std::string &Tag)>
        &Measure) {
  bool Passed = true;
  for (const auto &[Tag, MinIps] : readBaseline(Path)) {
    std::optional<double> Ips = Measure(Tag);
    if (!Ips) {
      std::fprintf(stderr, "baseline tag %s not measured\n", Tag.c_str());
      Passed = false;
      continue;
    }
    double Floor = 0.75 * MinIps;
    std::printf("gate: %-12s %12.0f instr/s (baseline %.0f, floor %.0f) %s\n",
                Tag.c_str(), *Ips, MinIps, Floor,
                *Ips >= Floor ? "ok" : "REGRESSION");
    if (*Ips < Floor)
      Passed = false;
  }
  return Passed;
}
