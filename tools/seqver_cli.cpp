//===- tools/seqver_cli.cpp - Command line verifier ------------------------===//
///
/// The command-line front door: verifies a concurrent program written in
/// the mini-language (see docs in README.md) with a chosen preference order
/// or the portfolio race over all of them (runtime/ParallelPortfolio.h).
///
/// Usage:
///   seqver [options] <file.conc>
///   seqver --check=<axis>[,quick]
///
/// Options:
///   --order=<seq|lockstep|rand(n+1)|rand(n+2)|rand(n+3)|baseline>
///                         single preference order (default: portfolio);
///                         n is the --rand-seed value
///   --jobs=<n>            portfolio workers (default 0: hardware
///                         concurrency; 1 is the sequential portfolio)
///   --rand-seed=<n>       seed base of the rand(k) portfolio orders
///   --analyze             print the static race/independence report and
///                         exit (1 when potential races are found)
///   --analyze=karr        print the Karr affine-equality invariants per
///                         thread location and exit
///   --analyze=movers      print the Lipton mover classification and the
///                         transactions fusion would build, then exit
///   --no-sleep            disable sleep set reduction
///   --no-persistent       disable persistent set reduction
///   --no-proof-sensitive  disable conditional commutativity (Def. 7.3)
///   --no-static           disable the solver-free commutativity tier
///   --no-octagon          disable the octagon sub-tier and relational
///                         dead-edge pruning (--octagon, the default)
///   --no-karr             disable the Karr sub-tier, its proof seeding and
///                         affine dead-edge pruning (--karr, the default)
///   --seed-proof          seed the proof automaton with octagon and Karr
///                         invariant atoms (--no-seed, the default)
///   --no-prune            keep statically dead CFG edges
///   --fuse                fuse Lipton transactions before verification
///                         (docs/ANALYSIS.md §5; --no-fuse, the default)
///   --check=<axis>[,quick]
///                         run one axis of the differential arm matrix
///                         (docs/CHECKS.md); --timeout defaults to 10 here
///   --cache-dir=<dir>     persistent proof cache directory (docs/PERSIST.md)
///   --no-cache            ignore any --cache-dir given earlier
///   --cache-stats         print the cache counters after the run
///   --commut-cache=<off|shared|persist|conservative>
///                         shared commutativity oracle (default shared;
///                         docs/PERF.md §6 and docs/PERSIST.md)
///   --no-incremental      one fresh SMT solver per query instead of the
///                         incremental sessions (docs/PERF.md §7)
///   --timeout=<seconds>   timeout of the whole run (default 60; 0
///                         disables)
///   --witness             print the error trace for incorrect programs
///   --proof               print the final proof assertions
///   --minimize            greedily minimize the proof before reporting
///   --source=<wp|interp|both>
///                         refinement predicate source (default wp)
///   --simulate=<n>        before verifying, try n random executions
///   --stats               print detailed statistics
///
/// Malformed input (an unknown option, order or axis, or a number that is
/// not entirely digits in range) prints the usage text and exits 2.
///
//===----------------------------------------------------------------------===//

#include "arm_matrix.h"

#include "analysis/Analysis.h"
#include "analysis/Fusion.h"
#include "core/Portfolio.h"
#include "persist/Fingerprint.h"
#include "reduction/CommutOracle.h"
#include "program/CfgBuilder.h"
#include "program/Interpreter.h"
#include "runtime/ParallelPortfolio.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace seqver;

namespace {

struct CliOptions {
  std::string File;
  std::string Order; // empty = portfolio
  unsigned Jobs = 0; // 0 = hardware concurrency
  uint64_t RandSeedBase = 0;
  std::string Check; // axis of --check; empty = verify File
  bool CheckQuick = false;
  bool Analyze = false;
  bool NoSleep = false;
  bool NoPersistent = false;
  bool NoProofSensitive = false;
  bool NoStatic = false;
  bool NoOctagon = false;
  bool NoKarr = false;
  std::string AnalyzeFocus; // "karr" / "movers" = focused dumps
  bool SeedProof = false;
  bool NoPrune = false;
  bool Fuse = false;
  bool PrintWitness = false;
  bool PrintProof = false;
  bool Minimize = false;
  std::string Source = "wp";
  uint64_t Simulate = 0;
  bool PrintStats = false;
  double Timeout = 60;
  bool TimeoutSet = false;
  std::string CacheDir;
  bool CacheStats = false;
  std::string CommutCache = "shared";
  bool Incremental = true;
};

void printUsage() {
  std::printf(
      "usage: seqver [options] <file.conc>\n"
      "       seqver --check=<tiers|parallel|cache|fusion|commut|"
      "incremental>[,quick]\n"
      "  --order=<seq|lockstep|rand(n+1)|rand(n+2)|rand(n+3)|baseline>\n"
      "  --jobs=<n> (1: sequential portfolio) --rand-seed=<n>\n"
      "  --analyze[=karr|movers] --no-sleep --no-persistent\n"
      "  --no-proof-sensitive --no-static --no-octagon --no-karr\n"
      "  --seed-proof --no-seed --no-prune --fuse --no-fuse\n"
      "  --cache-dir=<dir> --no-cache --cache-stats\n"
      "  --commut-cache=<off|shared|persist|conservative>\n"
      "  --no-incremental --incremental --minimize\n"
      "  --source=<wp|interp|both> --simulate=<n>\n"
      "  --timeout=<seconds> --witness --proof --stats\n");
}

/// Parses all of Text as a number of Out's type: no sign an unsigned type
/// cannot hold, no trailing characters, in range, finite.
template <typename T> bool parseNumber(const std::string &Text, T &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Err] = std::from_chars(Text.data(), End, Out);
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(Out) || Out < 0)
      return false;
  return Err == std::errc() && Ptr == End;
}

bool parseArgs(int argc, char **argv, CliOptions &Opts) {
  // Switches set one field to a fixed value; choices take one of a fixed
  // list of values.
  const std::pair<std::string, std::pair<bool *, bool>> Switches[] = {
      {"--analyze", {&Opts.Analyze, true}},
      {"--no-sleep", {&Opts.NoSleep, true}},
      {"--no-persistent", {&Opts.NoPersistent, true}},
      {"--no-proof-sensitive", {&Opts.NoProofSensitive, true}},
      {"--no-static", {&Opts.NoStatic, true}},
      {"--no-octagon", {&Opts.NoOctagon, true}},
      {"--octagon", {&Opts.NoOctagon, false}},
      {"--no-karr", {&Opts.NoKarr, true}},
      {"--karr", {&Opts.NoKarr, false}},
      {"--seed-proof", {&Opts.SeedProof, true}},
      {"--no-seed", {&Opts.SeedProof, false}},
      {"--no-prune", {&Opts.NoPrune, true}},
      {"--fuse", {&Opts.Fuse, true}},
      {"--no-fuse", {&Opts.Fuse, false}},
      {"--cache-stats", {&Opts.CacheStats, true}},
      {"--incremental", {&Opts.Incremental, true}},
      {"--no-incremental", {&Opts.Incremental, false}},
      {"--witness", {&Opts.PrintWitness, true}},
      {"--proof", {&Opts.PrintProof, true}},
      {"--minimize", {&Opts.Minimize, true}},
      {"--stats", {&Opts.PrintStats, true}}};
  const std::pair<std::string,
                  std::pair<std::string *, std::vector<std::string>>>
      Choices[] = {
          {"--analyze", {&Opts.AnalyzeFocus, {"karr", "movers"}}},
          {"--commut-cache",
           {&Opts.CommutCache, {"off", "shared", "persist", "conservative"}}},
          {"--source", {&Opts.Source, {"wp", "interp", "both"}}}};
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    size_t Eq = Arg.find('=');
    std::string Key = Arg.substr(0, Eq);
    std::string Value = Eq == std::string::npos ? "" : Arg.substr(Eq + 1);
    auto Switch = std::find_if(std::begin(Switches), std::end(Switches),
                               [&Arg](const auto &S) { return S.first == Arg; });
    auto Choice = std::find_if(
        std::begin(Choices), std::end(Choices), [&](const auto &C) {
          return C.first == Key && Eq != std::string::npos;
        });
    bool Ok = true;
    if (Switch != std::end(Switches)) {
      *Switch->second.first = Switch->second.second;
    } else if (Choice != std::end(Choices)) {
      const std::vector<std::string> &Allowed = Choice->second.second;
      Ok = std::find(Allowed.begin(), Allowed.end(), Value) != Allowed.end();
      *Choice->second.first = Value;
    } else if (Key == "--order" && Eq != std::string::npos) {
      Opts.Order = Value;
    } else if (Key == "--cache-dir" && Eq != std::string::npos) {
      Opts.CacheDir = Value;
    } else if (Arg == "--no-cache") {
      Opts.CacheDir.clear();
    } else if (Key == "--jobs") {
      Ok = parseNumber(Value, Opts.Jobs);
    } else if (Key == "--rand-seed") {
      Ok = parseNumber(Value, Opts.RandSeedBase);
    } else if (Key == "--simulate") {
      Ok = parseNumber(Value, Opts.Simulate);
    } else if (Key == "--timeout") {
      Ok = Opts.TimeoutSet = parseNumber(Value, Opts.Timeout);
    } else if (Key == "--check") {
      size_t Comma = Value.find(',');
      Opts.Check = Value.substr(0, Comma);
      Opts.CheckQuick = Comma != std::string::npos;
      Ok = check::isAxis(Opts.Check) &&
           (!Opts.CheckQuick || Value.substr(Comma + 1) == "quick");
    } else if (Arg == "--help" || Arg == "-h") {
      return false;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return false;
    } else if (Opts.File.empty()) {
      Opts.File = Arg;
    } else {
      std::fprintf(stderr, "multiple input files\n");
      return false;
    }
    if (!Ok) {
      std::fprintf(stderr, "invalid value in '%s'\n", Arg.c_str());
      return false;
    }
  }
  Opts.Analyze = Opts.Analyze || !Opts.AnalyzeFocus.empty();
  return !Opts.Check.empty() || !Opts.File.empty();
}

/// True iff --order names "baseline" or an order of P's portfolio.
bool knownOrder(const prog::ConcurrentProgram &P, const CliOptions &Opts) {
  if (Opts.Order == "baseline")
    return true;
  for (const auto &Order : red::makePortfolioOrders(
           P, core::VerifierConfig().RandOrders, Opts.RandSeedBase))
    if (Order->name() == Opts.Order)
      return true;
  return false;
}

/// Prints the proof-cache counters of Stats on one line.
void reportCacheStats(const Statistics &Stats) {
  std::printf("cache: %lld hit(s), %lld miss(es), %lld seeded "
              "predicate(s), %lld round(s) saved warm, %lld store(s)\n",
              static_cast<long long>(Stats.get("cache_hits")),
              static_cast<long long>(Stats.get("cache_misses")),
              static_cast<long long>(Stats.get("cache_seeded")),
              static_cast<long long>(Stats.get("rounds_saved_warm")),
              static_cast<long long>(Stats.get("cache_stores")));
}

void report(const core::VerificationResult &R,
            const prog::ConcurrentProgram &P, const CliOptions &Opts,
            const std::string &OrderName) {
  std::printf("verdict: %s", core::verdictName(R.V).c_str());
  if (!OrderName.empty())
    std::printf(" (order: %s)", OrderName.c_str());
  std::printf("\nrounds: %d  proof size: %zu", R.Rounds, R.ProofSize);
  if (R.MinimizedProofSize > 0)
    std::printf("  minimized: %zu", R.MinimizedProofSize);
  std::printf("  time: %.3fs\n", R.Seconds);
  if (Opts.PrintWitness && R.V == core::Verdict::Incorrect) {
    std::printf("witness:\n");
    for (automata::Letter L : R.Witness)
      std::printf("  %s\n", P.action(L).Name.c_str());
  }
  if (Opts.PrintProof && R.V == core::Verdict::Correct) {
    std::printf("proof assertions:\n");
    for (const std::string &Assertion : R.ProofAssertions)
      std::printf("  %s\n", Assertion.c_str());
  }
  if (Opts.PrintStats)
    std::printf("stats: %s\n", R.Stats.str().c_str());
}

} // namespace

int main(int argc, char **argv) {
  CliOptions Opts;
  if (!parseArgs(argc, argv, Opts)) {
    printUsage();
    return 2;
  }
  if (!Opts.Check.empty()) {
    check::CheckOptions Check;
    Check.Quick = Opts.CheckQuick;
    Check.TimeoutSeconds = Opts.TimeoutSet ? Opts.Timeout : 10;
    Check.Jobs = Opts.Jobs;
    Check.RandSeedBase = Opts.RandSeedBase;
    return check::runAxis(Opts.Check, Check);
  }

  std::ifstream In(Opts.File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Opts.File.c_str());
    return 2;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  smt::TermManager TM;
  prog::BuildResult Build = prog::buildFromSource(Buffer.str(), TM);
  if (!Build.ok()) {
    std::fprintf(stderr, "%s: %s\n", Opts.File.c_str(),
                 Build.Error.c_str());
    return 2;
  }
  prog::ConcurrentProgram &P = *Build.Program;
  if (!Opts.Order.empty() && !knownOrder(P, Opts)) {
    std::fprintf(stderr, "unknown order '%s'\n", Opts.Order.c_str());
    printUsage();
    return 2;
  }
  std::printf("%s: %d threads, %u locations, %u statements\n",
              Opts.File.c_str(), P.numThreads(), P.size(), P.numLetters());

  if (Opts.Analyze) {
    if (Opts.AnalyzeFocus == "karr") {
      // Affine invariant dump: every location whose Karr system knows
      // something, one atom per line.
      analysis::KarrAnalysis Karr(P);
      std::printf("== karr affine invariants ==\n");
      for (int T = 0; T < P.numThreads(); ++T) {
        const prog::ThreadCfg &Cfg = P.thread(T);
        for (prog::Location L = 0; L < Cfg.numLocations(); ++L) {
          std::vector<smt::Term> Atoms = Karr.invariantAtoms(T, L);
          if (Atoms.empty())
            continue;
          std::printf("thread %d loc %u:\n", T, L);
          for (smt::Term Atom : Atoms)
            std::printf("  %s\n", TM.str(Atom).c_str());
        }
      }
      std::printf("affine locations: %zu\n", Karr.numAffineLocations());
      return 0;
    }
    if (Opts.AnalyzeFocus == "movers") {
      // Classify against the program the verifier would actually run:
      // pruning first makes the dead-edge vacuity rule bite.
      if (!Opts.NoPrune)
        analysis::pruneDeadEdges(P);
      analysis::ProgramAnalysis PA(P);
      std::vector<const analysis::InvariantSource *> Sources =
          PA.invariantSources();
      analysis::MoverAnalysis Movers(P, PA.locks(), PA.accesses(), Sources);
      std::printf("%s", Movers.report().c_str());
      analysis::FusionStats FS = analysis::fuseTransactions(P, Movers);
      std::printf("fusion: %u edge(s) into %u transaction(s); alphabet "
                  "%u -> %u, reachable locations %u -> %u\n",
                  FS.FusedEdges, FS.Transactions, FS.AlphabetBefore,
                  FS.AlphabetAfter, FS.StatesBefore, FS.StatesAfter);
      return 0;
    }
    analysis::ProgramAnalysis PA(P);
    std::printf("%s", PA.report().c_str());
    return PA.races().raceFree() ? 0 : 1;
  }

  if (!Opts.NoPrune) {
    analysis::PrunePreset Preset =
        Opts.NoOctagon ? analysis::PrunePreset::IntervalOnly
        : Opts.NoKarr  ? analysis::PrunePreset::WithOctagons
                       : analysis::PrunePreset::Full;
    analysis::PruneStats PS;
    uint32_t Pruned = analysis::pruneDeadEdges(P, Preset, &PS);
    if (Pruned > 0) {
      auto KarrIt = PS.BySource.find("karr");
      uint32_t KarrOnly = KarrIt != PS.BySource.end() ? KarrIt->second : 0;
      std::printf("pruned %u statically dead edge(s)", Pruned);
      if (KarrOnly > 0)
        std::printf(" (%u affine-only)", KarrOnly);
      std::printf("\n");
    }
  }

  if (Opts.Fuse) {
    analysis::FusionStats FS = analysis::fuseTransactions(P);
    std::printf("fused %u edge(s) into %u transaction(s); alphabet "
                "%u -> %u, reachable locations %u -> %u\n",
                FS.FusedEdges, FS.Transactions, FS.AlphabetBefore,
                FS.AlphabetAfter, FS.StatesBefore, FS.StatesAfter);
  }

  if (Opts.Simulate > 0) {
    auto Bug = prog::randomWalkForBug(P, /*Seed=*/1, Opts.Simulate);
    if (Bug) {
      std::printf("random testing (%llu walks): BUG FOUND\n",
                  static_cast<unsigned long long>(Opts.Simulate));
      if (Opts.PrintWitness)
        for (automata::Letter L : *Bug)
          std::printf("  %s\n", P.action(L).Name.c_str());
      return 1;
    }
    std::printf("random testing (%llu walks): no bug found; verifying...\n",
                static_cast<unsigned long long>(Opts.Simulate));
  }

  core::VerifierConfig Config;
  Config.TimeoutSeconds = Opts.Timeout;
  Config.RandSeedBase = Opts.RandSeedBase;
  Config.CacheDir = Opts.CacheDir;
  Config.UseSleepSets = !Opts.NoSleep;
  Config.UsePersistentSets = !Opts.NoPersistent;
  Config.ProofSensitive = !Opts.NoProofSensitive && !Opts.NoSleep;
  Config.StaticTier = !Opts.NoStatic;
  Config.OctagonTier = !Opts.NoOctagon;
  Config.KarrTier = !Opts.NoKarr;
  Config.SeedProof = Opts.SeedProof;
  Config.IncrementalSmt = Opts.Incremental;
  Config.MinimizeProof = Opts.Minimize;
  Config.Source = Opts.Source == "interp"
                      ? core::PredicateSource::Interpolation
                  : Opts.Source == "both" ? core::PredicateSource::Both
                                          : core::PredicateSource::WpChain;

  // Shared commutativity oracle (reduction/CommutOracle.h). Created here,
  // after pruning and fusion, so the disk namespace fingerprint is taken
  // from the very program the verifiers run (portfolio workers rebuild the
  // identical program: same source, same preprocessing flags). The table
  // outlives both branches below; workers hold non-owning pointers.
  red::CommutOracle CommutTable;
  red::CommutOracle *Oracle =
      Opts.CommutCache == "off" ? nullptr : &CommutTable;
  bool CommutDisk = (Opts.CommutCache == "persist" ||
                     Opts.CommutCache == "conservative") &&
                    !Opts.CacheDir.empty();
  if (CommutDisk) {
    size_t Loaded =
        CommutTable.bindDisk(Opts.CacheDir, persist::fingerprintProgram(P),
                             Opts.CommutCache == "conservative");
    if (Opts.CacheStats)
      std::printf("commut cache: loaded %zu persisted answer(s)\n", Loaded);
  }

  core::Verdict Final = core::Verdict::Unknown;
  if (!Opts.Order.empty()) {
    Config.SharedCommut = Oracle;
    core::VerificationResult R = core::runSingleOrder(P, Config, Opts.Order);
    report(R, P, Opts, Opts.Order);
    if (Opts.CacheStats)
      reportCacheStats(R.Stats);
    Final = R.V;
  } else {
    runtime::ParallelConfig PC;
    PC.Jobs = Opts.Jobs;
    // Workers rebuild from source; replicate this process's preprocessing.
    PC.PruneDeadEdges = !Opts.NoPrune;
    PC.OctagonPrune = !Opts.NoOctagon;
    PC.KarrPrune = !Opts.NoOctagon && !Opts.NoKarr;
    PC.FuseTransactions = Opts.Fuse;
    PC.SharedCommut = Oracle;
    runtime::ParallelPortfolioResult R =
        runtime::runPortfolioParallel(Buffer.str(), Config, PC);
    report(R.Best, P, Opts, R.BestOrder);
    std::printf("portfolio: %u job(s), wall %.3fs, race cost %.3fs\n",
                R.Jobs, R.WallSeconds, R.sumSeconds());
    for (const core::PortfolioEntry &E : R.Entries)
      std::printf("  %-10s %-10s %7.3fs\n", E.OrderName.c_str(),
                  core::verdictName(E.Result.V).c_str(), E.Result.Seconds);
    if (Opts.PrintStats)
      std::printf("merged stats: %s\n", R.Merged.str().c_str());
    if (Opts.CacheStats)
      reportCacheStats(R.Merged);
    Final = R.Best.V;
  }
  if (CommutDisk) {
    CommutTable.flushDisk();
    if (Opts.CacheStats)
      std::printf("commut cache: flushed %zu answer(s)\n",
                  CommutTable.size());
  }
  return Final == core::Verdict::Correct     ? 0
         : Final == core::Verdict::Incorrect ? 1
                                             : 3;
}
