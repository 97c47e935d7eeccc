//===- bench/Harness.h - Shared experiment harness ------------------------===//
///
/// \file
/// Common infrastructure for the per-table/per-figure experiment binaries:
/// named tool configurations (Automizer baseline, GemCutter portfolio, the
/// Table 2 variants), suite execution with per-instance timeouts, and table
/// printers. Each bench binary regenerates one table or figure of the
/// paper's evaluation (Sec. 8); see EXPERIMENTS.md for the index.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_BENCH_HARNESS_H
#define SEQVER_BENCH_HARNESS_H

#include "core/Portfolio.h"
#include "core/Verifier.h"
#include "support/Statistics.h"
#include "workloads/Workloads.h"

#include <string>
#include <vector>

namespace seqver {
namespace bench {

/// One (instance, tool) execution.
struct RunRecord {
  std::string Instance;
  std::string Family;
  bool ExpectedCorrect = true;
  std::string Tool;
  core::Verdict V = core::Verdict::Unknown;
  double Seconds = 0;
  int Rounds = 0;
  size_t ProofSize = 0;
  /// The run's support/Statistics counters (peak_visited, the commutativity
  /// tiers, interning, proof-cache traffic, ...). For gemcutter-par these
  /// are the hub-merged counters of every racing order, not the winner's.
  Statistics Stats;
  /// Portfolio only: name of the winning order.
  std::string BestOrder;
  /// Parallel portfolio only: real wall-clock of the whole race (Seconds
  /// stays the winner's own time, the as-if-parallel aggregate) and the
  /// summed per-order cost the race actually paid.
  double WallSeconds = 0;
  double RaceCostSeconds = 0;

  bool decisive() const { return core::isDecisive(V); }
  /// Decisive and agreeing with ground truth (all tools here are sound, so
  /// a decisive disagreement indicates a harness bug, not a tool answer).
  bool successful() const {
    return decisive() &&
           (V == core::Verdict::Correct) == ExpectedCorrect;
  }
};

/// Per-instance timeout in seconds (environment SEQVER_BENCH_TIMEOUT
/// overrides; default 10).
double benchTimeout();

/// Tool names understood by runTool:
///   automizer            baseline, no reduction (Sec. 8's comparison)
///   gemcutter            portfolio over seq/lockstep/rand(1..3),
///                        sequential as-if-parallel emulation: the fastest
///                        decisive order's time; the counters, rounds and
///                        BestOrder of the decisive order with the fewest
///                        rounds, then visited_total, then priority
///   gemcutter-par        the same portfolio raced on the parallel runtime
///                        (real wall-clock in WallSeconds; Stats holds the
///                        hub-merged counters of every racing order, not
///                        just the winner's)
///   seq | lockstep | rand(1) | rand(2) | rand(3)
///                        single preference order, full reduction
///   sleep                portfolio, sleep sets only
///   persistent           portfolio, persistent sets only
///   gemcutter-nops       portfolio without proof-sensitive commutativity
///   seq-nops             seq order without proof-sensitive commutativity
RunRecord runTool(const workloads::WorkloadInstance &W,
                  const std::string &Tool);

/// Runs every instance of Suite under Tool.
std::vector<RunRecord> runSuite(
    const std::vector<workloads::WorkloadInstance> &Suite,
    const std::string &Tool, bool Verbose = false);

/// Simple fixed-width table printer.
void printTableHeader(const std::vector<std::string> &Columns,
                      const std::vector<int> &Widths);
void printTableRow(const std::vector<std::string> &Cells,
                   const std::vector<int> &Widths);

/// Aggregates in the shape of Table 1 rows.
struct SuiteAggregate {
  int Successful = 0;
  double TotalSeconds = 0;
  /// Sum of RunRecord::Rounds: the winner's rounds for gemcutter-par,
  /// where Stats' "rounds" sums every racing order's.
  int64_t TotalRounds = 0;
  /// Every counter of the records summed by name. Gauges are summed too,
  /// so peak_visited is Table 1's summed peak states.
  Statistics Stats;

  /// Intern-probe hit rate in percent (0 when no probes were recorded).
  double internHitRatePct() const {
    return pct(Stats.get("intern_hits"),
               Stats.get("intern_hits") + Stats.get("intern_misses"));
  }
  /// Share of distinct sleep sets in the inline 64/128-bit representation.
  double sleepsetBitsetPct() const {
    return pct(Stats.get("sleepset_inline_sets"),
               Stats.get("sleepset_inline_sets") +
                   Stats.get("sleepset_spill_sets"));
  }

private:
  static double pct(int64_t Part, int64_t Whole) {
    return Whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(Part) /
                            static_cast<double>(Whole);
  }
};

/// Aggregate over records, optionally restricted to expected-correct or
/// expected-incorrect instances (Filter: 0 = all, 1 = correct,
/// 2 = incorrect).
SuiteAggregate aggregate(const std::vector<RunRecord> &Records,
                         int Filter = 0);

} // namespace bench
} // namespace seqver

#endif // SEQVER_BENCH_HARNESS_H
