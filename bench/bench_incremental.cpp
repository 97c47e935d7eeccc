//===- bench/bench_incremental.cpp - Incremental DPLL(T) sessions ---------===//
///
/// Measures what the incremental SMT sessions (smt::Session over a
/// persistent smt::Solver, docs/PERF.md §7) save against the pre-session
/// behaviour of building one throwaway solver per query: every workload is
/// verified twice under the seq preference order — once with
/// VerifierConfig::IncrementalSmt on (the default), once off — and the
/// headline number is the summed `smt_solver_us` of each arm: wall-time
/// spent constructing, encoding and solving, the cost the sessions
/// amortise. Verdicts must agree between the arms; sessions only change
/// how queries are posed, never their meaning.
///
/// Suites: all four tier-1 suites. Unlike bench_commut_oracle there is no
/// reason to drop the bluetooth family here — its refinement-bound Hoare
/// queries are exactly the per-letter sessions' richest workload.
///
/// Writes a flat BENCH_incremental.json (path in argv[1], default
/// BENCH_incremental.json in the working directory) that
/// tools/check_perf.sh diffs against the checked-in baseline at the repo
/// root; dropping below the incremental-savings floor fails the gate.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "program/CfgBuilder.h"
#include "support/Timer.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace seqver;
using namespace seqver::bench;

namespace {

/// Aggregate of one arm over the whole suite.
struct ArmTotals {
  int Successful = 0;
  int64_t SolverUs = 0;     ///< smt_solver_us: construct + encode + solve
  int64_t Queries = 0;      ///< smt_queries (real solves, cache misses)
  int64_t TheoryRounds = 0; ///< smt_theory_rounds
  double WallSeconds = 0;   ///< summed verification wall-clock
};

void accumulate(ArmTotals &T, const workloads::WorkloadInstance &W,
                const core::VerificationResult &R, double Wall) {
  if (core::isDecisive(R.V) &&
      (R.V == core::Verdict::Correct) == W.ExpectedCorrect)
    ++T.Successful;
  T.SolverUs += R.Stats.get("smt_solver_us");
  T.Queries += R.Stats.get("smt_queries");
  T.TheoryRounds += R.Stats.get("smt_theory_rounds");
  T.WallSeconds += Wall;
}

double savedPct(int64_t Fresh, int64_t Incremental) {
  return Fresh <= 0 ? 0.0
                    : 100.0 * static_cast<double>(Fresh - Incremental) /
                          static_cast<double>(Fresh);
}

struct JsonWriter {
  std::FILE *F;
  bool First = true;

  void field(const char *Name, double Value) {
    std::fprintf(F, "%s  \"%s\": %.6g", First ? "" : ",\n", Name, Value);
    First = false;
  }
  void field(const char *Name, int64_t Value) {
    std::fprintf(F, "%s  \"%s\": %lld", First ? "" : ",\n", Name,
                 static_cast<long long>(Value));
    First = false;
  }
};

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = argc > 1 ? argv[1] : "BENCH_incremental.json";

  std::vector<workloads::WorkloadInstance> Suite = workloads::tier1Suite();

  core::VerifierConfig Base;
  Base.TimeoutSeconds = benchTimeout();

  std::printf("== Incremental DPLL(T) sessions (seq order) ==\n");
  std::printf("(per-instance timeout %.0fs; slv = smt_solver_us, the "
              "construct+encode+solve wall-time)\n\n",
              benchTimeout());
  printTableHeader({"instance", "slv-inc", "slv-fresh", "sess", "asolve",
                    "retained", "warm-pvt"},
                   {20, 9, 9, 6, 7, 8, 8});

  ArmTotals Incremental, Fresh;
  int Mismatches = 0;
  int64_t Sessions = 0, AssumptionSolves = 0, Retained = 0, WarmPivots = 0;
  int64_t WarmStarts = 0;
  for (const auto &W : Suite) {
    smt::TermManager TM;
    prog::BuildResult Build = prog::buildFromSource(W.Source, TM);
    if (!Build.ok()) {
      std::fprintf(stderr, "%s: %s\n", W.Name.c_str(), Build.Error.c_str());
      return 1;
    }

    core::VerifierConfig Config = Base;
    Config.IncrementalSmt = true;
    Timer IncClock;
    core::VerificationResult Inc =
        core::runSingleOrder(*Build.Program, Config, "seq");
    accumulate(Incremental, W, Inc, IncClock.seconds());

    Config.IncrementalSmt = false;
    Timer FreshClock;
    core::VerificationResult Fr =
        core::runSingleOrder(*Build.Program, Config, "seq");
    accumulate(Fresh, W, Fr, FreshClock.seconds());

    if (Inc.V != Fr.V) {
      ++Mismatches;
      std::fprintf(stderr, "%s: verdict mismatch (%s incremental, %s "
                           "fresh)\n",
                   W.Name.c_str(), core::verdictName(Inc.V).c_str(),
                   core::verdictName(Fr.V).c_str());
    }
    Sessions += Inc.Stats.get("smt_sessions");
    AssumptionSolves += Inc.Stats.get("smt_assumption_solves");
    Retained += Inc.Stats.get("smt_clauses_retained");
    WarmPivots += Inc.Stats.get("smt_tableau_warm_pivots");
    WarmStarts += Inc.Stats.get("smt_tableau_warm_starts");

    char IncBuf[32], FreshBuf[32];
    std::snprintf(IncBuf, sizeof(IncBuf), "%.3fs",
                  static_cast<double>(Inc.Stats.get("smt_solver_us")) / 1e6);
    std::snprintf(FreshBuf, sizeof(FreshBuf), "%.3fs",
                  static_cast<double>(Fr.Stats.get("smt_solver_us")) / 1e6);
    printTableRow(
        {W.Name, IncBuf, FreshBuf,
         std::to_string(Inc.Stats.get("smt_sessions")),
         std::to_string(Inc.Stats.get("smt_assumption_solves")),
         std::to_string(Inc.Stats.get("smt_clauses_retained")),
         std::to_string(Inc.Stats.get("smt_tableau_warm_pivots"))},
        {20, 9, 9, 6, 7, 8, 8});
  }

  double SavingsPct = savedPct(Fresh.SolverUs, Incremental.SolverUs);
  std::printf("\nsolver wall-seconds: %.3fs incremental, %.3fs fresh "
              "(%.1f%% saved)\n",
              static_cast<double>(Incremental.SolverUs) / 1e6,
              static_cast<double>(Fresh.SolverUs) / 1e6, SavingsPct);
  std::printf("sessions: %lld opened, %lld assumption solve(s), %lld "
              "learned clause(s) retained, %lld warm start(s), %lld warm "
              "pivot(s)\n",
              static_cast<long long>(Sessions),
              static_cast<long long>(AssumptionSolves),
              static_cast<long long>(Retained),
              static_cast<long long>(WarmStarts),
              static_cast<long long>(WarmPivots));
  std::printf("successful: %d/%zu incremental, %d/%zu fresh\n",
              Incremental.Successful, Suite.size(), Fresh.Successful,
              Suite.size());
  if (Mismatches > 0) {
    std::fprintf(stderr, "error: %d verdict mismatch(es)\n", Mismatches);
    return 1;
  }

  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(F, "{\n");
  JsonWriter J{F};
  J.field("schema_version", static_cast<int64_t>(1));
  J.field("instances", static_cast<int64_t>(Suite.size()));
  J.field("successful_incremental",
          static_cast<int64_t>(Incremental.Successful));
  J.field("successful_fresh", static_cast<int64_t>(Fresh.Successful));
  J.field("solver_s_incremental",
          static_cast<double>(Incremental.SolverUs) / 1e6);
  J.field("solver_s_fresh", static_cast<double>(Fresh.SolverUs) / 1e6);
  J.field("incremental_savings_pct", SavingsPct);
  J.field("smt_queries_incremental", Incremental.Queries);
  J.field("smt_queries_fresh", Fresh.Queries);
  J.field("smt_theory_rounds_incremental", Incremental.TheoryRounds);
  J.field("smt_theory_rounds_fresh", Fresh.TheoryRounds);
  J.field("smt_sessions", Sessions);
  J.field("smt_assumption_solves", AssumptionSolves);
  J.field("smt_clauses_retained", Retained);
  J.field("smt_tableau_warm_pivots", WarmPivots);
  J.field("smt_tableau_warm_starts", WarmStarts);
  J.field("wall_s_incremental", Incremental.WallSeconds);
  J.field("wall_s_fresh", Fresh.WallSeconds);
  std::fprintf(F, "\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
