//===- bench/bench_octagon_seeding.cpp - Octagon tier + seeding ablation ---===//
///
/// Measures what the relational invariant engine buys on loop-heavy
/// workloads: GemCutter with the octagon commutativity tier plus proof
/// seeding (`gemcutter-oct`) against the interval-only, unseeded stack
/// (`gemcutter-nooct`). Expected shape on programs whose proofs hinge on
/// relational loop invariants (total == i, a - b <= 1): fewer SMT
/// commutativity checks (the octagon tier discharges conditional queries
/// the interval tier cannot) and fewer refinement rounds (seeded invariant
/// atoms let round 0 start from the loop invariant instead of rediscovering
/// it predicate by predicate).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/StringUtils.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace seqver;
using namespace seqver::bench;

namespace {

std::vector<workloads::WorkloadInstance> loopSuite() {
  std::vector<workloads::WorkloadInstance> Suite =
      workloads::loopHeavySuite();
  // A slice of the bluetooth family keeps the comparison honest on
  // workloads where octagons are *not* expected to help much.
  std::vector<workloads::WorkloadInstance> Weaver =
      workloads::weaverLikeSuite();
  for (const auto &W : Weaver)
    if (W.Family == "bluetooth" && Suite.size() < 11)
      Suite.push_back(W);
  return Suite;
}

void printComparison(const std::vector<RunRecord> &Oct,
                     const std::vector<RunRecord> &NoOct) {
  printTableHeader({"instance", "oct", "no-oct", "rd-oct", "rd-base",
                    "sem-oct", "sem-base", "oct-tier", "seeds"},
                   {20, 9, 9, 7, 7, 8, 8, 8, 6});
  for (size_t I = 0; I < Oct.size() && I < NoOct.size(); ++I) {
    const RunRecord &A = Oct[I];
    const RunRecord &B = NoOct[I];
    printTableRow({A.Instance, core::verdictName(A.V),
                   core::verdictName(B.V), std::to_string(A.Rounds),
                   std::to_string(B.Rounds),
                   std::to_string(A.Stats.get("semantic_commut_checks")),
                   std::to_string(B.Stats.get("semantic_commut_checks")),
                   std::to_string(A.Stats.get("commut_octagon")),
                   std::to_string(A.Stats.get("seeded_predicates"))},
                  {20, 9, 9, 7, 7, 8, 8, 8, 6});
  }
}

/// Suite-level ablation; counters land in the --benchmark_out JSON so
/// BENCH_*.json tracks the rounds and SMT-query savings over time.
void BM_LoopHeavyOctagonSeeding(benchmark::State &State) {
  auto Suite = loopSuite();
  SuiteAggregate Oct, Base;
  for (auto _ : State) {
    auto OctRecords = runSuite(Suite, "gemcutter-oct");
    auto BaseRecords = runSuite(Suite, "gemcutter-nooct");
    benchmark::DoNotOptimize(OctRecords.size());
    Oct = aggregate(OctRecords);
    Base = aggregate(BaseRecords);
  }
  State.counters["rounds_octagon"] = static_cast<double>(Oct.TotalRounds);
  State.counters["rounds_baseline"] = static_cast<double>(Base.TotalRounds);
  State.counters["rounds_saved"] =
      static_cast<double>(Base.TotalRounds - Oct.TotalRounds);
  State.counters["semantic_checks_octagon"] =
      static_cast<double>(Oct.Stats.get("semantic_commut_checks"));
  State.counters["semantic_checks_baseline"] =
      static_cast<double>(Base.Stats.get("semantic_commut_checks"));
  State.counters["smt_queries_saved"] =
      static_cast<double>(Base.Stats.get("smt_queries") -
                          Oct.Stats.get("smt_queries"));
  for (const char *Name : {"commut_octagon", "seeded_predicates"})
    State.counters[Name] = static_cast<double>(Oct.Stats.get(Name));
}
BENCHMARK(BM_LoopHeavyOctagonSeeding)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace

int main(int argc, char **argv) {
  std::printf("== Ablation: octagon commutativity tier + proof seeding ==\n");
  std::printf("(per-instance timeout %.0fs)\n\n", benchTimeout());

  auto Suite = loopSuite();
  auto Oct = runSuite(Suite, "gemcutter-oct");
  auto NoOct = runSuite(Suite, "gemcutter-nooct");
  printComparison(Oct, NoOct);

  SuiteAggregate A = aggregate(Oct);
  SuiteAggregate B = aggregate(NoOct);
  std::printf("\nsolved: %d with octagons+seeding, %d interval-only\n",
              A.Successful, B.Successful);
  std::printf("refinement rounds: %lld vs %lld (%lld saved)\n",
              static_cast<long long>(A.TotalRounds),
              static_cast<long long>(B.TotalRounds),
              static_cast<long long>(B.TotalRounds - A.TotalRounds));
  std::printf("semantic commutativity checks: %lld vs %lld\n",
              static_cast<long long>(A.Stats.get("semantic_commut_checks")),
              static_cast<long long>(B.Stats.get("semantic_commut_checks")));
  std::printf("smt queries: %lld vs %lld\n",
              static_cast<long long>(A.Stats.get("smt_queries")),
              static_cast<long long>(B.Stats.get("smt_queries")));
  std::printf("octagon-settled queries: %lld, seeded predicates: %lld\n",
              static_cast<long long>(A.Stats.get("commut_octagon")),
              static_cast<long long>(A.Stats.get("seeded_predicates")));

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
