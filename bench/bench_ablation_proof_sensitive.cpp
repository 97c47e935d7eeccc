//===- bench/bench_ablation_proof_sensitive.cpp - Sec. 8 ablation ----------===//
///
/// Regenerates the proof-sensitivity ablation of Sec. 8: GemCutter with and
/// without proof-sensitive (conditional) commutativity. The paper reports:
/// without it, fewer programs are analysed, average proof size grows by a
/// few percent, total refinement rounds grow, time per round stays roughly
/// the same, and memory increases.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/StringUtils.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace seqver;
using namespace seqver::bench;

namespace {

struct Agg {
  int Solved = 0;
  double ProofTotal = 0;
  int ProofCount = 0;
  int64_t Rounds = 0;
  double Time = 0;
  int64_t PeakStates = 0;
};

Agg summarize(const std::vector<RunRecord> &Records) {
  Agg Out;
  for (const RunRecord &R : Records) {
    if (!R.successful())
      continue;
    ++Out.Solved;
    Out.Rounds += R.Rounds;
    Out.Time += R.Seconds;
    Out.PeakStates += R.Stats.get("peak_visited");
    if (R.V == core::Verdict::Correct) {
      Out.ProofTotal += static_cast<double>(R.ProofSize);
      ++Out.ProofCount;
    }
  }
  return Out;
}

double pct(double With, double Without) {
  if (With == 0)
    return 0;
  return (Without - With) / With * 100.0;
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
  std::printf("== Ablation: proof-sensitive commutativity (Sec. 8) ==\n\n");
  const std::vector<std::pair<std::string,
                              std::vector<workloads::WorkloadInstance>>>
      Suites = {{"SV-COMP", workloads::svcompLikeSuite()},
                {"Weaver", workloads::weaverLikeSuite()}};

  for (const auto &[SuiteName, Suite] : Suites) {
    Agg With = summarize(runSuite(Suite, "gemcutter"));
    Agg Without = summarize(runSuite(Suite, "gemcutter-nops"));
    std::printf("-- %s --\n", SuiteName.c_str());
    printTableHeader({"", "with", "without", "delta%"}, {22, 12, 12, 9});
    auto Row = [&](const char *Label, double W, double WO, int Decimals) {
      printTableRow({Label, formatDouble(W, Decimals),
                     formatDouble(WO, Decimals),
                     formatDouble(pct(W, WO), 2)},
                    {22, 12, 12, 9});
    };
    Row("solved", With.Solved, Without.Solved, 0);
    Row("avg proof size",
        With.ProofCount ? With.ProofTotal / With.ProofCount : 0,
        Without.ProofCount ? Without.ProofTotal / Without.ProofCount : 0, 2);
    Row("total rounds", static_cast<double>(With.Rounds),
        static_cast<double>(Without.Rounds), 0);
    Row("time/round (s)",
        With.Rounds ? With.Time / static_cast<double>(With.Rounds) : 0,
        Without.Rounds ? Without.Time / static_cast<double>(Without.Rounds)
                       : 0,
        4);
    Row("peak states (sum)", static_cast<double>(With.PeakStates),
        static_cast<double>(Without.PeakStates), 0);
    std::printf("\n");
  }
  std::printf("paper's shape: without proof-sensitivity, fewer solved / "
              "larger proofs / more rounds / more memory.\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
