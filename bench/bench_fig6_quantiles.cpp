//===- bench/bench_fig6_quantiles.cpp - Fig. 6 ----------------------------===//
///
/// Regenerates Figure 6: quantile plots of CPU time and memory over the
/// successfully analysed programs, Automizer vs GemCutter. A point (x, y)
/// means the x-th fastest successfully analysed instance took y seconds
/// (resp. the x-th smallest peak-state count was y states). Printed as two
/// aligned series suitable for plotting.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/StringUtils.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

using namespace seqver;
using namespace seqver::bench;

namespace {

std::vector<workloads::WorkloadInstance> fullSuite() {
  auto Suite = workloads::svcompLikeSuite();
  auto Weaver = workloads::weaverLikeSuite();
  Suite.insert(Suite.end(), Weaver.begin(), Weaver.end());
  return Suite;
}

void printQuantiles(const char *Title, std::vector<double> A,
                    std::vector<double> G, const char *Unit) {
  std::sort(A.begin(), A.end());
  std::sort(G.begin(), G.end());
  std::printf("\n-- %s (%s; per successfully analysed instance, sorted) "
              "--\n",
              Title, Unit);
  printTableHeader({"n-th", "Automizer", "GemCutter"}, {6, 12, 12});
  size_t N = std::max(A.size(), G.size());
  for (size_t I = 0; I < N; ++I) {
    printTableRow({std::to_string(I + 1),
                   I < A.size() ? formatDouble(A[I], 4) : "-",
                   I < G.size() ? formatDouble(G[I], 4) : "-"},
                  {6, 12, 12});
  }
}

} // namespace

namespace {

/// Microbenchmark: one portfolio verification of a representative instance.
void BM_PortfolioMutexSafe3(benchmark::State &State) {
  workloads::WorkloadInstance W;
  for (const auto &Inst : workloads::svcompLikeSuite())
    if (Inst.Name == "mutex_safe_3")
      W = Inst;
  for (auto _ : State) {
    RunRecord R = runTool(W, "gemcutter");
    benchmark::DoNotOptimize(R.Rounds);
  }
}
BENCHMARK(BM_PortfolioMutexSafe3)->Unit(benchmark::kMillisecond);

} // namespace


int main(int argc, char **argv) {
  std::printf("== Figure 6: quantile plots of CPU time and memory ==\n");
  auto Suite = fullSuite();
  auto Automizer = runSuite(Suite, "automizer");
  auto GemCutter = runSuite(Suite, "gemcutter");

  std::vector<double> TimeA, TimeG, MemA, MemG;
  for (const RunRecord &R : Automizer)
    if (R.successful()) {
      TimeA.push_back(R.Seconds);
      MemA.push_back(static_cast<double>(R.Stats.get("peak_visited")));
    }
  for (const RunRecord &R : GemCutter)
    if (R.successful()) {
      TimeG.push_back(R.Seconds);
      MemG.push_back(static_cast<double>(R.Stats.get("peak_visited")));
    }

  printQuantiles("CPU time", TimeA, TimeG, "seconds");
  printQuantiles("Memory proxy", MemA, MemG, "peak DFS states");

  double SumA = 0, SumG = 0;
  for (double T : TimeA)
    SumA += T;
  for (double T : TimeG)
    SumG += T;
  std::printf("\nsolved: Automizer=%zu GemCutter=%zu; total time: "
              "Automizer=%.2fs GemCutter=%.2fs\n",
              TimeA.size(), TimeG.size(), SumA, SumG);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
