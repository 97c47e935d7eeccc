//===- runtime/ParallelPortfolio.cpp - Racing portfolio scheduler ---------===//

#include "runtime/ParallelPortfolio.h"

#include "analysis/Analysis.h"
#include "analysis/Fusion.h"
#include "program/CfgBuilder.h"
#include "runtime/Cancellation.h"
#include "runtime/Executor.h"
#include "runtime/StatisticsHub.h"
#include "support/Timer.h"

#include <algorithm>
#include <future>
#include <memory>

using namespace seqver;
using namespace seqver::runtime;
using seqver::core::VerificationResult;
using seqver::core::Verdict;
using seqver::core::VerifierConfig;

double ParallelPortfolioResult::sumSeconds() const {
  double Sum = 0;
  for (const core::PortfolioEntry &E : Entries)
    Sum += E.Result.Seconds;
  return Sum;
}

namespace {

/// One racing task: rebuild the program, select the OrderIdx-th portfolio
/// order, verify under the shared token. Never throws past the future
/// boundary by construction (build errors become Unknown). A task the race
/// stopped before it started returns at once: building the program and the
/// Verifier's analyses and cache seeding would be wasted work.
VerificationResult verifyOneOrder(const std::string &Source,
                                  const VerifierConfig &Base,
                                  size_t OrderIdx, bool Prune,
                                  analysis::PrunePreset Preset, bool Fuse,
                                  red::CommutOracle *Oracle,
                                  const CancellationToken *Race,
                                  Statistics *Sink) {
  if (Race->stopRequested()) {
    VerificationResult R;
    R.V = Race->cancelRequested() ? Verdict::Cancelled : Verdict::Timeout;
    return R;
  }
  smt::TermManager TM;
  prog::BuildResult Build = prog::buildFromSource(Source, TM);
  if (!Build.ok()) {
    VerificationResult R;
    R.V = Verdict::Unknown;
    return R;
  }
  if (Prune) {
    analysis::PruneStats PS;
    analysis::pruneDeadEdges(*Build.Program, Preset, &PS);
    if (Sink) {
      Sink->add("edges_pruned", static_cast<int64_t>(PS.Removed));
      auto KarrIt = PS.BySource.find("karr");
      if (KarrIt != PS.BySource.end())
        Sink->add("karr_pruned", static_cast<int64_t>(KarrIt->second));
    }
  }
  if (Fuse) {
    // Fuse before the orders are built: preference orders hold per-letter
    // vectors sized at construction, so the alphabet must be final here.
    analysis::FusionStats FS = analysis::fuseTransactions(*Build.Program);
    if (Sink) {
      Sink->add("fusion_fused_edges", static_cast<int64_t>(FS.FusedEdges));
      Sink->add("fusion_transactions",
                static_cast<int64_t>(FS.Transactions));
      Sink->setMax("fusion_alphabet_before",
                   static_cast<int64_t>(FS.AlphabetBefore));
      Sink->setMax("fusion_alphabet_after",
                   static_cast<int64_t>(FS.AlphabetAfter));
      Sink->setMax("fusion_states_before",
                   static_cast<int64_t>(FS.StatesBefore));
      Sink->setMax("fusion_states_after",
                   static_cast<int64_t>(FS.StatesAfter));
    }
  }

  auto Orders = red::makePortfolioOrders(*Build.Program, Base.RandOrders,
                                         Base.RandSeedBase);
  VerifierConfig Config = Base;
  Config.Order = Orders[OrderIdx].get();
  Config.Cancel = Race;
  Config.SharedCommut = Oracle;
  core::Verifier V(*Build.Program, Config);
  VerificationResult R = V.run();
  // Each worker owns its sink (registered before launch, see the hub's
  // contract); merging here is single-writer.
  if (Sink)
    Sink->mergeFrom(R.Stats);
  return R;
}

} // namespace

ParallelPortfolioResult seqver::runtime::runPortfolioParallel(
    const std::string &Source, const VerifierConfig &Base,
    const ParallelConfig &PC) {
  ParallelPortfolioResult Out;
  Timer Wall;

  // Order names are a pure function of the config — no program needed.
  std::vector<std::string> Names = {"seq", "lockstep"};
  for (int K = 1; K <= Base.RandOrders; ++K)
    Names.push_back("rand(" + std::to_string(Base.RandSeedBase +
                                             static_cast<uint64_t>(K)) +
                    ")");
  const size_t NumOrders = Names.size();

  auto Race = std::make_shared<CancellationToken>();
  if (Base.TimeoutSeconds > 0)
    Race->armDeadline(Base.TimeoutSeconds);

  StatisticsHub Hub;
  std::vector<Statistics *> Sinks;
  Sinks.reserve(NumOrders);
  for (size_t I = 0; I < NumOrders; ++I)
    Sinks.push_back(&Hub.registerSink());
  Hub.start(); // seal registration before any worker can run

  unsigned Jobs = PC.Jobs;
  if (Jobs == 0) {
    Jobs = std::thread::hardware_concurrency();
    if (Jobs == 0)
      Jobs = 1;
  }
  Jobs = std::min<unsigned>(Jobs, static_cast<unsigned>(NumOrders));

  std::vector<std::future<VerificationResult>> Futures;
  Futures.reserve(NumOrders);
  {
    Executor Pool(Jobs);
    for (size_t I = 0; I < NumOrders; ++I) {
      analysis::PrunePreset Preset =
          PC.KarrPrune ? analysis::PrunePreset::Full
          : PC.OctagonPrune ? analysis::PrunePreset::WithOctagons
                            : analysis::PrunePreset::IntervalOnly;
      Futures.push_back(Pool.submit(
          [&Source, &Base, I, Prune = PC.PruneDeadEdges, Preset,
           Fuse = PC.FuseTransactions, Oracle = PC.SharedCommut, Race,
           Sink = Sinks[I]]() -> VerificationResult {
            VerificationResult R = verifyOneOrder(
                Source, Base, I, Prune, Preset, Fuse, Oracle, Race.get(),
                Sink);
            // First decisive verdict stops the race; calling this for
            // every decisive finisher is idempotent.
            if (core::isDecisive(R.V))
              Race->requestCancel();
            return R;
          }));
    }
    // Leaving the scope drains the queue and joins all workers.
  }

  Out.Jobs = Jobs;
  Out.Entries.reserve(NumOrders);
  for (size_t I = 0; I < NumOrders; ++I) {
    core::PortfolioEntry Entry;
    Entry.OrderName = Names[I];
    try {
      Entry.Result = Futures[I].get();
    } catch (const std::exception &) {
      // A task that died (e.g. bad_alloc) must not sink the whole race;
      // its entry stays Unknown and the other orders still count.
      Entry.Result.V = Verdict::Unknown;
    }
    Out.Entries.push_back(std::move(Entry));
  }
  Out.WallSeconds = Wall.seconds();

  // Deterministic winner selection: lowest-priority-index decisive order.
  // All decisive verdicts agree (soundness), so the verdict itself never
  // depends on scheduling; only the reported order label is tie-broken.
  int64_t DecisiveCount = 0, CancelledCount = 0;
  size_t WinnerIdx = NumOrders;
  for (size_t I = 0; I < NumOrders; ++I) {
    Verdict V = Out.Entries[I].Result.V;
    if (core::isDecisive(V)) {
      ++DecisiveCount;
      if (WinnerIdx == NumOrders)
        WinnerIdx = I;
    } else if (V == Verdict::Cancelled) {
      ++CancelledCount;
    }
  }
  if (WinnerIdx == NumOrders) {
    // Nothing decisive: surface the most informative loser — Unknown (a
    // solver give-up is meaningful) over Timeout over Cancelled.
    auto Score = [](Verdict V) {
      return V == Verdict::Unknown ? 0 : V == Verdict::Timeout ? 1 : 2;
    };
    WinnerIdx = 0;
    for (size_t I = 1; I < NumOrders; ++I)
      if (Score(Out.Entries[I].Result.V) <
          Score(Out.Entries[WinnerIdx].Result.V))
        WinnerIdx = I;
  }
  Out.Best = Out.Entries[WinnerIdx].Result;
  Out.BestOrder = Out.Entries[WinnerIdx].OrderName;

  Out.Merged = Hub.merged();
  Out.Merged.add("portfolio_decisive_orders", DecisiveCount);
  Out.Merged.add("portfolio_cancelled_orders", CancelledCount);
  return Out;
}
