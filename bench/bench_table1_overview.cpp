//===- bench/bench_table1_overview.cpp - Table 1 ---------------------------===//
///
/// Regenerates Table 1: number of successfully analysed benchmarks, CPU
/// time, memory, and refinement rounds for the Automizer baseline vs the
/// GemCutter portfolio, on the SV-COMP-like and Weaver-like suites, split by
/// correct/incorrect instances. Memory is proxied by peak DFS states (the
/// dominating allocation of the proof check); see EXPERIMENTS.md.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "program/CfgBuilder.h"
#include "support/StringUtils.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace seqver;
using namespace seqver::bench;

namespace {

void printSuiteBlock(const std::string &SuiteName,
                     const std::vector<workloads::WorkloadInstance> &Suite) {
  std::printf("\n-- %s (%zu instances) --\n", SuiteName.c_str(),
              Suite.size());
  auto Automizer = runSuite(Suite, "automizer");
  auto GemCutter = runSuite(Suite, "gemcutter");

  std::vector<int> Widths = {14, 5, 10, 12, 8, 5, 10, 12, 8};
  printTableHeader({"", "#", "time(s)", "peak-states", "rounds", "#",
                    "time(s)", "peak-states", "rounds"},
                   Widths);
  std::printf("%-14s %s\n", "",
              "        Automizer                       GemCutter");
  for (int Filter : {0, 1, 2}) {
    SuiteAggregate A = aggregate(Automizer, Filter);
    SuiteAggregate G = aggregate(GemCutter, Filter);
    std::string Label = Filter == 0   ? "successful"
                        : Filter == 1 ? "- correct"
                                      : "- incorrect";
    printTableRow({Label, std::to_string(A.Successful),
                   seqver::formatDouble(A.TotalSeconds, 2),
                   std::to_string(A.Stats.get("peak_visited")),
                   std::to_string(A.TotalRounds),
                   std::to_string(G.Successful),
                   seqver::formatDouble(G.TotalSeconds, 2),
                   std::to_string(G.Stats.get("peak_visited")),
                   std::to_string(G.TotalRounds)},
                  Widths);
  }

  // Shape check mirroring the paper's headline: GemCutter solves at least
  // as many instances with no more refinement rounds on the common set.
  int64_t CommonRoundsA = 0, CommonRoundsG = 0;
  for (size_t I = 0; I < Automizer.size(); ++I) {
    if (Automizer[I].successful() && GemCutter[I].successful()) {
      CommonRoundsA += Automizer[I].Rounds;
      CommonRoundsG += GemCutter[I].Rounds;
    }
  }
  std::printf("\ncommonly-solved rounds: Automizer=%lld GemCutter=%lld\n",
              static_cast<long long>(CommonRoundsA),
              static_cast<long long>(CommonRoundsG));

  // Commutativity tier breakdown for GemCutter: how many queries the
  // solver-free static tier settled, and the SMT checks that remained.
  SuiteAggregate G = aggregate(GemCutter);
  int64_t Queries = G.Stats.get("commut_queries");
  int64_t Static = G.Stats.get("commut_static");
  double StaticPct =
      Queries ? 100.0 * static_cast<double>(Static) /
                    static_cast<double>(Queries)
              : 0.0;
  std::printf("commutativity tiers (GemCutter): queries=%lld static=%lld "
              "(%.1f%%) semantic=%lld smt=%lld\n",
              static_cast<long long>(Queries), static_cast<long long>(Static),
              StaticPct,
              static_cast<long long>(G.Stats.get("semantic_commut_checks")),
              static_cast<long long>(G.Stats.get("smt_queries")));
}

/// Races the parallel portfolio against the sum-of-orders cost on the
/// small Weaver subset. The exported counters land in the BENCH JSON:
/// parallel_wall_s is real measured wall-clock, sequential_sum_s is what
/// running every order to completion costs, and
/// portfolio_speedup is their ratio (the genuine win of the racing
/// executor — cancellation stops losing orders, so it exceeds 1 even on a
/// single core).
void BM_SuitePortfolioParallel(benchmark::State &State) {
  auto Suite = workloads::weaverLikeSuite();
  Suite.resize(4); // bluetooth 1..4
  double ParallelWall = 0, SequentialSum = 0, AsIfParallel = 0;
  std::vector<RunRecord> ParRecords;
  for (auto _ : State) {
    ParallelWall = SequentialSum = AsIfParallel = 0;
    ParRecords.clear();
    for (const auto &W : Suite) {
      RunRecord Par = runTool(W, "gemcutter-par");
      ParallelWall += Par.WallSeconds;
      AsIfParallel += Par.Seconds;
      ParRecords.push_back(Par);
      // Every order run to completion; its cost is the sum over orders.
      smt::TermManager TM;
      prog::BuildResult B = prog::buildFromSource(W.Source, TM);
      if (!B.ok())
        continue;
      core::VerifierConfig Config;
      Config.TimeoutSeconds = benchTimeout();
      for (const auto &Order : red::makePortfolioOrders(*B.Program))
        SequentialSum +=
            core::runSingleOrder(*B.Program, Config, Order->name()).Seconds;
    }
    benchmark::DoNotOptimize(ParallelWall);
  }
  State.counters["parallel_wall_s"] = ParallelWall;
  State.counters["sequential_sum_s"] = SequentialSum;
  State.counters["as_if_parallel_s"] = AsIfParallel;
  State.counters["portfolio_speedup"] =
      ParallelWall > 0 ? SequentialSum / ParallelWall : 0;
  // Hub-merged interning telemetry: every racing worker's private tables
  // contribute (docs/PERF.md), not just the winner's.
  SuiteAggregate Par = aggregate(ParRecords);
  // Proof-cache traffic is zero here (no CacheDir in the harness configs)
  // unless a future config opts the race into a shared store.
  for (const char *Name : {"intern_hits", "intern_misses", "peak_interned_sets",
                           "cache_hits", "cache_misses", "rounds_saved_warm"})
    State.counters[Name] = static_cast<double>(Par.Stats.get(Name));
  State.counters["intern_hit_rate_pct"] = Par.internHitRatePct();
  State.counters["sleepset_bitset_pct"] = Par.sleepsetBitsetPct();
}
BENCHMARK(BM_SuitePortfolioParallel)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_SuiteGemcutterSmall(benchmark::State &State) {
  auto Suite = workloads::weaverLikeSuite();
  Suite.resize(4); // bluetooth 1..4
  SuiteAggregate Last;
  for (auto _ : State) {
    auto Records = runSuite(Suite, "gemcutter");
    benchmark::DoNotOptimize(Records.size());
    Last = aggregate(Records);
  }
  // Exported into --benchmark_out JSON: the SMT-query savings of the
  // static commutativity tier.
  for (const char *Name : {"commut_queries", "commut_static",
                           "semantic_commut_checks", "smt_queries"})
    State.counters[Name] = static_cast<double>(Last.Stats.get(Name));
}
BENCHMARK(BM_SuiteGemcutterSmall)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

int main(int argc, char **argv) {
  std::printf("== Table 1: successfully analysed benchmarks, CPU time, "
              "memory proxy, refinement rounds ==\n");
  std::printf("(per-instance timeout %.0fs; memory proxied by peak DFS "
              "states)\n",
              benchTimeout());
  printSuiteBlock("SV-COMP-like benchmarks", workloads::svcompLikeSuite());
  printSuiteBlock("Weaver-like benchmarks", workloads::weaverLikeSuite());
  std::printf("\n== Microbenchmarks ==\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
