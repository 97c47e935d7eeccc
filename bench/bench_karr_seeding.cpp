//===- bench/bench_karr_seeding.cpp - Karr tier + seeding ablation ---------===//
///
/// Measures what the affine-equality engine buys on counting-proof
/// workloads whose invariants carry non-unit coefficients (total == 2*i,
/// j == 2*i): GemCutter with the Karr commutativity tier plus octagon+Karr
/// proof seeding (`gemcutter-karr`) against the same stack with the Karr
/// tier and its seeding contribution off (`gemcutter-nokarr`), and against
/// the interval-only, unseeded baseline (`gemcutter-nooct`). Expected shape
/// on the affine suite: strictly fewer refinement rounds or SMT
/// commutativity queries with Karr on — octagons cannot express the needed
/// equalities, so the nokarr arm must rediscover them predicate by
/// predicate.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/StringUtils.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace seqver;
using namespace seqver::bench;

namespace {

std::vector<workloads::WorkloadInstance> affineHeavySuite() {
  std::vector<workloads::WorkloadInstance> Suite = workloads::affineSuite();
  // The unit-coefficient loop workloads keep the comparison honest on
  // programs where the octagon tier already captures the invariant and
  // Karr is *not* expected to add much.
  for (const auto &W : workloads::loopHeavySuite())
    if (Suite.size() < 10)
      Suite.push_back(W);
  return Suite;
}

void printComparison(const std::vector<RunRecord> &Karr,
                     const std::vector<RunRecord> &NoKarr,
                     const std::vector<RunRecord> &Base) {
  printTableHeader({"instance", "karr", "no-karr", "rd-k", "rd-nk", "rd-b",
                    "sem-k", "sem-nk", "karr-tier", "k-seeds"},
                   {20, 9, 9, 5, 5, 5, 7, 7, 9, 7});
  for (size_t I = 0;
       I < Karr.size() && I < NoKarr.size() && I < Base.size(); ++I) {
    const RunRecord &A = Karr[I];
    const RunRecord &B = NoKarr[I];
    const RunRecord &C = Base[I];
    printTableRow({A.Instance, core::verdictName(A.V),
                   core::verdictName(B.V), std::to_string(A.Rounds),
                   std::to_string(B.Rounds), std::to_string(C.Rounds),
                   std::to_string(A.Stats.get("semantic_commut_checks")),
                   std::to_string(B.Stats.get("semantic_commut_checks")),
                   std::to_string(A.Stats.get("commut_karr")),
                   std::to_string(A.Stats.get("karr_seeded"))},
                  {20, 9, 9, 5, 5, 5, 7, 7, 9, 7});
  }
}

/// Suite-level ablation; counters land in the --benchmark_out JSON so
/// BENCH_*.json tracks the affine rounds and SMT-query savings over time.
void BM_AffineKarrSeeding(benchmark::State &State) {
  auto Suite = affineHeavySuite();
  SuiteAggregate Karr, NoKarr, Base;
  for (auto _ : State) {
    auto KarrRecords = runSuite(Suite, "gemcutter-karr");
    auto NoKarrRecords = runSuite(Suite, "gemcutter-nokarr");
    auto BaseRecords = runSuite(Suite, "gemcutter-nooct");
    benchmark::DoNotOptimize(KarrRecords.size());
    Karr = aggregate(KarrRecords);
    NoKarr = aggregate(NoKarrRecords);
    Base = aggregate(BaseRecords);
  }
  State.counters["rounds_karr"] = static_cast<double>(Karr.TotalRounds);
  State.counters["rounds_nokarr"] = static_cast<double>(NoKarr.TotalRounds);
  State.counters["rounds_baseline"] = static_cast<double>(Base.TotalRounds);
  State.counters["rounds_saved"] =
      static_cast<double>(Base.TotalRounds - Karr.TotalRounds);
  State.counters["semantic_checks_karr"] =
      static_cast<double>(Karr.Stats.get("semantic_commut_checks"));
  State.counters["semantic_checks_nokarr"] =
      static_cast<double>(NoKarr.Stats.get("semantic_commut_checks"));
  State.counters["smt_queries_saved"] =
      static_cast<double>(NoKarr.Stats.get("smt_queries") -
                          Karr.Stats.get("smt_queries"));
  for (const char *Name : {"commut_karr", "karr_seeded"})
    State.counters[Name] = static_cast<double>(Karr.Stats.get(Name));
}
BENCHMARK(BM_AffineKarrSeeding)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace

int main(int argc, char **argv) {
  std::printf("== Ablation: Karr affine tier + proof seeding ==\n");
  std::printf("(per-instance timeout %.0fs)\n\n", benchTimeout());

  auto Suite = affineHeavySuite();
  auto Karr = runSuite(Suite, "gemcutter-karr");
  auto NoKarr = runSuite(Suite, "gemcutter-nokarr");
  auto Base = runSuite(Suite, "gemcutter-nooct");
  printComparison(Karr, NoKarr, Base);

  SuiteAggregate A = aggregate(Karr);
  SuiteAggregate B = aggregate(NoKarr);
  SuiteAggregate C = aggregate(Base);
  std::printf("\nsolved: %d with karr, %d without karr, %d interval-only\n",
              A.Successful, B.Successful, C.Successful);
  std::printf("refinement rounds: %lld karr vs %lld nokarr vs %lld "
              "interval-only\n",
              static_cast<long long>(A.TotalRounds),
              static_cast<long long>(B.TotalRounds),
              static_cast<long long>(C.TotalRounds));
  std::printf("semantic commutativity checks: %lld vs %lld vs %lld\n",
              static_cast<long long>(A.Stats.get("semantic_commut_checks")),
              static_cast<long long>(B.Stats.get("semantic_commut_checks")),
              static_cast<long long>(C.Stats.get("semantic_commut_checks")));
  std::printf("smt queries: %lld vs %lld vs %lld\n",
              static_cast<long long>(A.Stats.get("smt_queries")),
              static_cast<long long>(B.Stats.get("smt_queries")),
              static_cast<long long>(C.Stats.get("smt_queries")));
  std::printf("karr-settled queries: %lld, karr-seeded predicates: %lld "
              "(of %lld total seeds)\n",
              static_cast<long long>(A.Stats.get("commut_karr")),
              static_cast<long long>(A.Stats.get("karr_seeded")),
              static_cast<long long>(A.Stats.get("seeded_predicates")));

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
