//===- runtime/ParallelPortfolio.h - Racing portfolio scheduler -----------===//
///
/// \file
/// The preference-order portfolio (PAPER.md Sec. 8: "terminates as soon
/// as the analysis for any preference order terminates") and the only
/// portfolio driver: Jobs=1 is the sequential portfolio. One verification
/// task per order runs on a fixed-size Executor; the first decisive verdict
/// cancels the remaining tasks through a shared CancellationToken; running
/// losers stop within one poll interval (docs/RUNTIME.md quantifies the
/// latency), and queued ones return before they build their program.
///
/// Isolation: every worker builds its *own* program from source with its
/// own TermManager — term construction mutates the manager, so racing
/// verifiers must not share one. Orders are reconstructed per worker from
/// the config's RandSeedBase (support/Random.h has no shared state), so
/// all workers see the identical portfolio.
///
/// Determinism: all orders run sound analyses of the same program, so
/// every decisive verdict agrees; the *verdict* is therefore independent
/// of thread scheduling. The reported winning order is tie-broken by fixed
/// order priority (seq < lockstep < rand(k)) among the orders that
/// finished decisively. With Jobs=1 the orders run one after another in
/// priority order until the first decisive one, which is the winner.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_RUNTIME_PARALLELPORTFOLIO_H
#define SEQVER_RUNTIME_PARALLELPORTFOLIO_H

#include "core/Portfolio.h"
#include "support/Statistics.h"

#include <string>
#include <vector>

namespace seqver {
namespace runtime {

/// Scheduler knobs for one parallel portfolio race.
struct ParallelConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned Jobs = 0;
  /// Apply analysis::pruneDeadEdges to each worker's program copy (the
  /// CLI's default preprocessing; must match the single-order path when
  /// comparing verdicts).
  bool PruneDeadEdges = false;
  /// Use octagon invariants in addition to intervals when pruning (only
  /// meaningful with PruneDeadEdges; must match the single-order path's
  /// --octagon setting when comparing verdicts).
  bool OctagonPrune = false;
  /// Use Karr affine equalities on top of the octagons when pruning (only
  /// meaningful with PruneDeadEdges and OctagonPrune; must match the
  /// single-order path's --karr setting when comparing verdicts). Each
  /// worker's removed-edge counts land in its statistics sink as
  /// edges_pruned / karr_pruned.
  bool KarrPrune = false;
  /// Fuse Lipton transactions in each worker's program copy after pruning
  /// (analysis/Fusion.h; must match the single-order path's --fuse setting
  /// when comparing verdicts). Each worker's fusion counters land in its
  /// statistics sink as fusion_fused_edges / fusion_transactions /
  /// fusion_alphabet_before / fusion_alphabet_after /
  /// fusion_states_before / fusion_states_after.
  bool FuseTransactions = false;
  /// Shared commutativity oracle for the whole race
  /// (reduction/CommutOracle.h): every worker's CommutativityChecker
  /// consults and feeds one memo table under manager-independent canonical
  /// keys, so a pair any worker settles is settled for the fleet — the
  /// per-worker hit/miss/store traffic lands in the sinks as
  /// commut_shared_hits / commut_shared_misses / commut_shared_stores and
  /// merges through the hub. Non-owning; null keeps workers on their
  /// private caches. Sound to share across workers because they all build
  /// the identical program (same source, same preprocessing flags), and
  /// the canonical key fully determines the query's answer.
  red::CommutOracle *SharedCommut = nullptr;
};

struct ParallelPortfolioResult {
  /// Winner's result (deterministic tie-break; see file comment). Its
  /// Seconds is the winner's own run time — the as-if-parallel aggregate.
  core::VerificationResult Best;
  std::string BestOrder;
  /// All orders in priority order, including cancelled losers.
  std::vector<core::PortfolioEntry> Entries;
  /// Real wall-clock of the whole race (launch to last join).
  double WallSeconds = 0;
  /// Worker threads actually used.
  unsigned Jobs = 0;
  /// Per-worker statistics sinks merged after the join (plus scheduler
  /// counters: portfolio_cancelled_orders, portfolio_decisive_orders).
  Statistics Merged;

  bool decisive() const { return core::isDecisive(Best.V); }
  /// Sum of per-order run times: the cost the race actually paid
  /// (cancelled orders contribute only their partial time).
  double sumSeconds() const;
};

/// Races the full portfolio over Source. Base supplies everything but the
/// order (Order is overridden per task; Cancel is overridden with the
/// race's shared token). Base.TimeoutSeconds, when positive, is armed as a
/// real deadline for the race as a whole and for each task. A non-empty
/// Base.CacheDir is one proof-cache store for all workers: each loads at
/// construction and the decisive finishers write back, last-writer-wins
/// through atomic renames (docs/PERSIST.md).
ParallelPortfolioResult
runPortfolioParallel(const std::string &Source,
                     const core::VerifierConfig &Base,
                     const ParallelConfig &PC = {});

} // namespace runtime
} // namespace seqver

#endif // SEQVER_RUNTIME_PARALLELPORTFOLIO_H
