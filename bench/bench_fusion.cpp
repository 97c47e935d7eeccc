//===- bench/bench_fusion.cpp - Transaction fusion ablation ---------------===//
///
/// \file
/// Measures what Lipton transaction fusion (analysis/Fusion.h) buys on the
/// tier-1 suites: for every workload, the deterministic "seq" order runs
/// once on the pruned program and once on the pruned-then-fused program,
/// and the explored DFS state counts (visited_total) are compared. Fusion
/// collapses maximal right-mover*·commit·left-mover* chains into single
/// transaction edges, so the fused arm must never explore more states, and
/// on the loop-heavy and affine suites — whose bodies are long both-mover
/// chains under the invariant registry — the reduction must be strict.
/// The per-suite counters land in BENCH_fusion.json via --benchmark_out,
/// which tools/check_perf.sh tracks as a perf-gate baseline.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/Analysis.h"
#include "analysis/Fusion.h"
#include "program/CfgBuilder.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace seqver;
using namespace seqver::bench;

namespace {

struct SuiteFusion {
  std::string Suite;
  int64_t VisitedUnfused = 0;
  int64_t VisitedFused = 0;
  int64_t FusedEdges = 0;
  int64_t Transactions = 0;
  int Mismatches = 0;

  double reductionPct() const {
    return VisitedUnfused == 0
               ? 0.0
               : 100.0 *
                     static_cast<double>(VisitedUnfused - VisitedFused) /
                     static_cast<double>(VisitedUnfused);
  }
};

/// Both sequential arms for one workload, accumulated into Out.
void runArms(const workloads::WorkloadInstance &W, SuiteFusion &Out) {
  core::VerifierConfig Config;
  Config.TimeoutSeconds = benchTimeout();

  smt::TermManager PlainTM;
  prog::BuildResult Plain = prog::buildFromSource(W.Source, PlainTM);
  if (!Plain.ok())
    return;
  analysis::pruneDeadEdges(*Plain.Program);
  core::VerificationResult Unfused =
      core::runSingleOrder(*Plain.Program, Config, "seq");

  smt::TermManager FusedTM;
  prog::BuildResult Fused = prog::buildFromSource(W.Source, FusedTM);
  if (!Fused.ok())
    return;
  analysis::pruneDeadEdges(*Fused.Program);
  analysis::FusionStats FS = analysis::fuseTransactions(*Fused.Program);
  core::VerificationResult FusedRun =
      core::runSingleOrder(*Fused.Program, Config, "seq");

  if (Unfused.V != FusedRun.V)
    ++Out.Mismatches;
  Out.VisitedUnfused += Unfused.Stats.get("visited_total");
  Out.VisitedFused += FusedRun.Stats.get("visited_total");
  Out.FusedEdges += static_cast<int64_t>(FS.FusedEdges);
  Out.Transactions += static_cast<int64_t>(FS.Transactions);
}

SuiteFusion runFusionSuite(const std::string &Name,
                           const std::vector<workloads::WorkloadInstance> &S) {
  SuiteFusion Out;
  Out.Suite = Name;
  for (const auto &W : S)
    runArms(W, Out);
  return Out;
}

std::vector<SuiteFusion> runAllSuites() {
  return {
      runFusionSuite("svcomp", workloads::svcompLikeSuite()),
      runFusionSuite("weaver", workloads::weaverLikeSuite()),
      runFusionSuite("loop_heavy", workloads::loopHeavySuite()),
      runFusionSuite("affine", workloads::affineSuite()),
  };
}

/// Suite-level fused-vs-unfused DFS state counts; the counters land in the
/// --benchmark_out JSON so BENCH_fusion.json tracks the reduction over
/// time. loop_heavy and affine must show a strict reduction (the
/// fusion axis of seqver --check re-checks verdict agreement).
void BM_TransactionFusion(benchmark::State &State) {
  std::vector<SuiteFusion> Suites;
  for (auto _ : State) {
    Suites = runAllSuites();
    benchmark::DoNotOptimize(Suites.size());
  }
  int64_t Unfused = 0, Fused = 0, Edges = 0, Txns = 0, Mismatches = 0;
  for (const SuiteFusion &S : Suites) {
    State.counters["visited_unfused_" + S.Suite] =
        static_cast<double>(S.VisitedUnfused);
    State.counters["visited_fused_" + S.Suite] =
        static_cast<double>(S.VisitedFused);
    Unfused += S.VisitedUnfused;
    Fused += S.VisitedFused;
    Edges += S.FusedEdges;
    Txns += S.Transactions;
    Mismatches += S.Mismatches;
  }
  State.counters["visited_unfused_total"] = static_cast<double>(Unfused);
  State.counters["visited_fused_total"] = static_cast<double>(Fused);
  State.counters["fusion_fused_edges"] = static_cast<double>(Edges);
  State.counters["fusion_transactions"] = static_cast<double>(Txns);
  State.counters["verdict_mismatches"] = static_cast<double>(Mismatches);
}
BENCHMARK(BM_TransactionFusion)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace

int main(int argc, char **argv) {
  std::printf("== Transaction fusion: DFS states fused vs unfused ==\n");
  std::printf("(per-instance timeout %.0fs, seq order, pruned programs)\n\n",
              benchTimeout());

  std::vector<SuiteFusion> Suites = runAllSuites();
  printTableHeader(
      {"suite", "vis-unfused", "vis-fused", "fewer%", "edges", "txn", "mism"},
      {12, 12, 12, 7, 6, 5, 5});
  int64_t Unfused = 0, Fused = 0;
  for (const SuiteFusion &S : Suites) {
    char Pct[16];
    std::snprintf(Pct, sizeof(Pct), "%.1f", S.reductionPct());
    printTableRow({S.Suite, std::to_string(S.VisitedUnfused),
                   std::to_string(S.VisitedFused), Pct,
                   std::to_string(S.FusedEdges),
                   std::to_string(S.Transactions),
                   std::to_string(S.Mismatches)},
                  {12, 12, 12, 7, 6, 5, 5});
    Unfused += S.VisitedUnfused;
    Fused += S.VisitedFused;
  }
  if (Unfused > 0)
    std::printf("\ntotal: %lld -> %lld DFS states (%.1f%% fewer)\n",
                static_cast<long long>(Unfused),
                static_cast<long long>(Fused),
                100.0 * static_cast<double>(Unfused - Fused) /
                    static_cast<double>(Unfused));

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
