//===- bench/bench_commut_oracle.cpp - Shared commutativity oracle --------===//
///
/// Measures what the shared commutativity oracle (reduction/CommutOracle.h)
/// saves on the parallel portfolio: every workload is raced under four
/// arms — private per-checker caches (the pre-oracle behaviour), one
/// shared in-memory table, persisted-cold (a fresh table bound to an empty
/// disk store, flushed after the race), and persisted-warm (a fresh table
/// that reloads the flushed answers). The headline numbers are the
/// hub-merged `commut_semantic` counts: semantic-tier queries that
/// actually reached the solver, summed over every racing order.
///
/// Suites: all four tier-1 suites minus the bluetooth family. The
/// bluetooth workloads are refinement-bound — their semantic queries
/// carry per-order proof predicates (distinct Phi per racing order) that
/// no sharing scheme can deduplicate — and they dwarf the
/// commutativity-bound rest by an order of magnitude, so including them
/// would only measure noise on top of bench_table1_overview's ground.
///
/// Writes a flat BENCH_commut_oracle.json (path in argv[1], default
/// BENCH_commut_oracle.json in the working directory) that
/// tools/check_perf.sh diffs against the checked-in baseline at the repo
/// root; losing the shared or persisted-warm savings fails the gate.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "persist/Fingerprint.h"
#include "program/CfgBuilder.h"
#include "reduction/CommutOracle.h"
#include "runtime/ParallelPortfolio.h"
#include "support/Timer.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

using namespace seqver;
using namespace seqver::bench;

namespace {

/// Aggregate of one arm over the whole suite.
struct ArmTotals {
  int Successful = 0;
  int64_t Semantic = 0;    ///< hub-merged commut_semantic
  int64_t SharedHits = 0;  ///< hub-merged commut_shared_hits
  int64_t SmtQueries = 0;  ///< hub-merged smt_queries
  double WallSeconds = 0;  ///< summed race wall-clock
};

void accumulate(ArmTotals &T, const workloads::WorkloadInstance &W,
                const runtime::ParallelPortfolioResult &R) {
  if (core::isDecisive(R.Best.V) &&
      (R.Best.V == core::Verdict::Correct) == W.ExpectedCorrect)
    ++T.Successful;
  T.Semantic += R.Merged.get("commut_semantic");
  T.SharedHits += R.Merged.get("commut_shared_hits");
  T.SmtQueries += R.Merged.get("smt_queries");
  T.WallSeconds += R.WallSeconds;
}

double dropPct(int64_t Before, int64_t After) {
  return Before <= 0 ? 0.0
                     : 100.0 * static_cast<double>(Before - After) /
                           static_cast<double>(Before);
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
  std::string OutPath = argc > 1 ? argv[1] : "BENCH_commut_oracle.json";

  std::vector<workloads::WorkloadInstance> Suite;
  for (auto &W : workloads::tier1Suite())
    if (W.Family != "bluetooth")
      Suite.push_back(std::move(W));

  core::VerifierConfig Base;
  Base.TimeoutSeconds = benchTimeout();
  runtime::ParallelConfig PC;
  PC.Jobs = 4; // fixed: the race's overlap is the thing being measured

  std::string CacheDir =
      (std::filesystem::temp_directory_path() /
       ("seqver-bench-commut-" + std::to_string(getpid())))
          .string();
  std::error_code EC;
  std::filesystem::remove_all(CacheDir, EC);

  std::printf("== Shared commutativity oracle (parallel portfolio, %u "
              "jobs) ==\n",
              PC.Jobs);
  std::printf("(per-instance timeout %.0fs; sem = hub-merged semantic "
              "solver queries)\n\n",
              benchTimeout());
  printTableHeader(
      {"instance", "sem-priv", "sem-shared", "sem-cold", "sem-warm",
       "hits-shared", "hits-warm"},
      {20, 9, 10, 9, 9, 11, 9});

  ArmTotals Private, Shared, Cold, Warm;
  int64_t WarmLoaded = 0;
  for (const auto &W : Suite) {
    // The disk namespace fingerprints the program the workers build: from
    // source, no preprocessing (default ParallelConfig).
    smt::TermManager TM;
    prog::BuildResult Build = prog::buildFromSource(W.Source, TM);
    if (!Build.ok()) {
      std::fprintf(stderr, "%s: %s\n", W.Name.c_str(), Build.Error.c_str());
      return 1;
    }
    persist::Fingerprint FP = persist::fingerprintProgram(*Build.Program);

    PC.SharedCommut = nullptr;
    runtime::ParallelPortfolioResult RPriv =
        runtime::runPortfolioParallel(W.Source, Base, PC);
    accumulate(Private, W, RPriv);

    red::CommutOracle SharedTable;
    PC.SharedCommut = &SharedTable;
    runtime::ParallelPortfolioResult RShared =
        runtime::runPortfolioParallel(W.Source, Base, PC);
    accumulate(Shared, W, RShared);

    red::CommutOracle ColdTable;
    ColdTable.bindDisk(CacheDir, FP);
    PC.SharedCommut = &ColdTable;
    runtime::ParallelPortfolioResult RCold =
        runtime::runPortfolioParallel(W.Source, Base, PC);
    accumulate(Cold, W, RCold);
    ColdTable.flushDisk();

    red::CommutOracle WarmTable;
    WarmLoaded += static_cast<int64_t>(WarmTable.bindDisk(CacheDir, FP));
    PC.SharedCommut = &WarmTable;
    runtime::ParallelPortfolioResult RWarm =
        runtime::runPortfolioParallel(W.Source, Base, PC);
    accumulate(Warm, W, RWarm);

    printTableRow(
        {W.Name, std::to_string(RPriv.Merged.get("commut_semantic")),
         std::to_string(RShared.Merged.get("commut_semantic")),
         std::to_string(RCold.Merged.get("commut_semantic")),
         std::to_string(RWarm.Merged.get("commut_semantic")),
         std::to_string(RShared.Merged.get("commut_shared_hits")),
         std::to_string(RWarm.Merged.get("commut_shared_hits"))},
        {20, 9, 10, 9, 9, 11, 9});
  }
  std::filesystem::remove_all(CacheDir, EC);

  double SharedDrop = dropPct(Private.Semantic, Shared.Semantic);
  double WarmDrop = dropPct(Cold.Semantic, Warm.Semantic);
  std::printf("\nsemantic solver queries: %lld private, %lld shared "
              "(%.1f%% saved), %lld cold, %lld warm (%.1f%% saved)\n",
              static_cast<long long>(Private.Semantic),
              static_cast<long long>(Shared.Semantic), SharedDrop,
              static_cast<long long>(Cold.Semantic),
              static_cast<long long>(Warm.Semantic), WarmDrop);
  std::printf("successful: %d/%zu private, %d/%zu shared, %d/%zu cold, "
              "%d/%zu warm\n",
              Private.Successful, Suite.size(), Shared.Successful,
              Suite.size(), Cold.Successful, Suite.size(), Warm.Successful,
              Suite.size());

  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(F, "{\n");
  JsonWriter J{F};
  J.field("schema_version", static_cast<int64_t>(1));
  J.field("instances", static_cast<int64_t>(Suite.size()));
  J.field("jobs", static_cast<int64_t>(PC.Jobs));
  J.field("successful_private", static_cast<int64_t>(Private.Successful));
  J.field("successful_shared", static_cast<int64_t>(Shared.Successful));
  J.field("successful_cold", static_cast<int64_t>(Cold.Successful));
  J.field("successful_warm", static_cast<int64_t>(Warm.Successful));
  J.field("commut_semantic_private", Private.Semantic);
  J.field("commut_semantic_shared", Shared.Semantic);
  J.field("commut_semantic_cold", Cold.Semantic);
  J.field("commut_semantic_warm", Warm.Semantic);
  J.field("shared_drop_pct", SharedDrop);
  J.field("warm_drop_pct", WarmDrop);
  J.field("commut_shared_hits_shared", Shared.SharedHits);
  J.field("commut_shared_hits_warm", Warm.SharedHits);
  J.field("warm_entries_loaded", WarmLoaded);
  J.field("smt_queries_private", Private.SmtQueries);
  J.field("smt_queries_shared", Shared.SmtQueries);
  J.field("smt_queries_warm", Warm.SmtQueries);
  J.field("wall_s_private", Private.WallSeconds);
  J.field("wall_s_shared", Shared.WallSeconds);
  J.field("wall_s_cold", Cold.WallSeconds);
  J.field("wall_s_warm", Warm.WallSeconds);
  std::fprintf(F, "\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
