//===- bench/Harness.cpp - Shared experiment harness ----------------------===//

#include "Harness.h"

#include "program/CfgBuilder.h"
#include "runtime/ParallelPortfolio.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

using namespace seqver;
using namespace seqver::bench;
using seqver::core::Verdict;
using seqver::core::VerificationResult;
using seqver::core::VerifierConfig;

double seqver::bench::benchTimeout() {
  if (const char *Env = std::getenv("SEQVER_BENCH_TIMEOUT"))
    return std::atof(Env);
  return 10.0;
}

namespace {

RunRecord toRecord(const workloads::WorkloadInstance &W,
                   const std::string &Tool, const VerificationResult &R,
                   const std::string &BestOrder = "") {
  RunRecord Out;
  Out.Instance = W.Name;
  Out.Family = W.Family;
  Out.ExpectedCorrect = W.ExpectedCorrect;
  Out.Tool = Tool;
  Out.V = R.V;
  Out.Seconds = R.Seconds;
  Out.Rounds = R.Rounds;
  Out.ProofSize = R.ProofSize;
  Out.Stats = R.Stats;
  Out.BestOrder = BestOrder;
  return Out;
}

/// Portfolio with a config transformer applied per order.
template <typename ConfigFn>
RunRecord runPortfolioVariant(const workloads::WorkloadInstance &W,
                              const std::string &Tool, ConfigFn Transform) {
  smt::TermManager TM;
  prog::BuildResult B = prog::buildFromSource(W.Source, TM);
  if (!B.ok()) {
    std::fprintf(stderr, "build error in %s: %s\n", W.Name.c_str(),
                 B.Error.c_str());
    RunRecord Out;
    Out.Instance = W.Name;
    Out.Tool = Tool;
    return Out;
  }
  auto Orders = red::makePortfolioOrders(*B.Program);
  VerificationResult Best;
  std::string BestOrder;
  bool HaveBest = false;
  double Fastest = 0;
  // The winner, whose counters the record reports, is the decisive order
  // with the fewest rounds, then the fewest visited states, then the
  // earliest in priority order: a cost that repeats from run to run, unlike
  // measured seconds. The record's time is still the fastest decisive
  // order's, the as-if-parallel portfolio's finishing time.
  auto Cheaper = [](const VerificationResult &A, const VerificationResult &B) {
    return std::make_pair(A.Rounds, A.Stats.get("visited_total")) <
           std::make_pair(B.Rounds, B.Stats.get("visited_total"));
  };
  for (auto &Order : Orders) {
    VerifierConfig Config;
    Config.TimeoutSeconds = benchTimeout();
    Config.Order = Order.get();
    Transform(Config);
    core::Verifier V(*B.Program, Config);
    VerificationResult R = V.run();
    bool Decisive = R.V == Verdict::Correct || R.V == Verdict::Incorrect;
    if (Decisive)
      Fastest = HaveBest ? std::min(Fastest, R.Seconds) : R.Seconds;
    if (Decisive && (!HaveBest || Cheaper(R, Best))) {
      Best = R;
      BestOrder = Order->name();
      HaveBest = true;
    }
    if (!HaveBest && Best.Rounds == 0) {
      Best = R;
      BestOrder = Order->name();
    }
  }
  if (HaveBest)
    Best.Seconds = Fastest;
  return toRecord(W, Tool, Best, BestOrder);
}

} // namespace

RunRecord seqver::bench::runTool(const workloads::WorkloadInstance &W,
                                 const std::string &Tool) {
  if (Tool == "automizer") {
    smt::TermManager TM;
    prog::BuildResult B = prog::buildFromSource(W.Source, TM);
    if (!B.ok()) {
      RunRecord Out;
      Out.Instance = W.Name;
      Out.Tool = Tool;
      return Out;
    }
    VerifierConfig Config = VerifierConfig::baseline();
    Config.TimeoutSeconds = benchTimeout();
    core::Verifier V(*B.Program, Config);
    return toRecord(W, Tool, V.run());
  }
  if (Tool == "gemcutter")
    return runPortfolioVariant(W, Tool, [](VerifierConfig &) {});
  if (Tool == "gemcutter-par") {
    VerifierConfig Config;
    Config.TimeoutSeconds = benchTimeout();
    runtime::ParallelPortfolioResult R =
        runtime::runPortfolioParallel(W.Source, Config);
    RunRecord Out = toRecord(W, Tool, R.Best, R.BestOrder);
    Out.WallSeconds = R.WallSeconds;
    Out.RaceCostSeconds = R.sumSeconds();
    // The winner's lazily-registered counters miss whatever only the losing
    // orders touched; the hub-merged statistics are the race's true
    // totals (each worker's sink carries its verifier-exported counters).
    Out.Stats = R.Merged;
    return Out;
  }
  if (Tool == "sleep")
    return runPortfolioVariant(W, Tool, [](VerifierConfig &C) {
      C.UsePersistentSets = false;
    });
  if (Tool == "persistent")
    return runPortfolioVariant(W, Tool, [](VerifierConfig &C) {
      C.UseSleepSets = false;
      C.ProofSensitive = false;
    });
  if (Tool == "gemcutter-nops")
    return runPortfolioVariant(W, Tool, [](VerifierConfig &C) {
      C.ProofSensitive = false;
    });
  if (Tool == "seq-nops") {
    smt::TermManager TM;
    prog::BuildResult B = prog::buildFromSource(W.Source, TM);
    if (!B.ok()) {
      RunRecord Out;
      Out.Instance = W.Name;
      Out.Tool = Tool;
      return Out;
    }
    VerifierConfig Config;
    Config.TimeoutSeconds = benchTimeout();
    Config.ProofSensitive = false;
    return toRecord(W, Tool,
                    core::runSingleOrder(*B.Program, Config, "seq"));
  }
  // Single named order.
  smt::TermManager TM;
  prog::BuildResult B = prog::buildFromSource(W.Source, TM);
  if (!B.ok()) {
    RunRecord Out;
    Out.Instance = W.Name;
    Out.Tool = Tool;
    return Out;
  }
  VerifierConfig Config;
  Config.TimeoutSeconds = benchTimeout();
  return toRecord(W, Tool, core::runSingleOrder(*B.Program, Config, Tool));
}

std::vector<RunRecord> seqver::bench::runSuite(
    const std::vector<workloads::WorkloadInstance> &Suite,
    const std::string &Tool, bool Verbose) {
  std::vector<RunRecord> Out;
  Out.reserve(Suite.size());
  for (const workloads::WorkloadInstance &W : Suite) {
    RunRecord R = runTool(W, Tool);
    if (Verbose)
      std::printf("  %-24s %-10s %-9s %7.2fs rounds=%d proof=%zu\n",
                  R.Instance.c_str(), Tool.c_str(),
                  core::verdictName(R.V).c_str(), R.Seconds, R.Rounds,
                  R.ProofSize);
    Out.push_back(std::move(R));
  }
  return Out;
}

void seqver::bench::printTableHeader(const std::vector<std::string> &Columns,
                                     const std::vector<int> &Widths) {
  std::string Line;
  for (size_t I = 0; I < Columns.size(); ++I)
    Line += padLeft(Columns[I], static_cast<size_t>(Widths[I])) + "  ";
  std::printf("%s\n", Line.c_str());
  std::printf("%s\n", std::string(Line.size(), '-').c_str());
}

void seqver::bench::printTableRow(const std::vector<std::string> &Cells,
                                  const std::vector<int> &Widths) {
  std::string Line;
  for (size_t I = 0; I < Cells.size(); ++I)
    Line += padLeft(Cells[I], static_cast<size_t>(Widths[I])) + "  ";
  std::printf("%s\n", Line.c_str());
}

SuiteAggregate seqver::bench::aggregate(const std::vector<RunRecord> &Records,
                                        int Filter) {
  SuiteAggregate Out;
  for (const RunRecord &R : Records) {
    if (Filter == 1 && !R.ExpectedCorrect)
      continue;
    if (Filter == 2 && R.ExpectedCorrect)
      continue;
    if (!R.successful())
      continue;
    ++Out.Successful;
    Out.TotalSeconds += R.Seconds;
    Out.TotalRounds += R.Rounds;
    for (const auto &[Name, Value] : R.Stats.all())
      Out.Stats.add(Name, Value);
  }
  return Out;
}
