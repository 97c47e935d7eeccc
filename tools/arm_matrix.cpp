//===- tools/arm_matrix.cpp - Differential arm matrix ---------------------===//
///
/// The engine runs every arm of an axis on every workload of its suites,
/// applies the agreement rule and the counter relations, and prints one
/// report. The axis builders at the bottom are the only per-layer code.
///
//===----------------------------------------------------------------------===//

#include "arm_matrix.h"

#include "analysis/Analysis.h"
#include "analysis/Fusion.h"
#include "core/Portfolio.h"
#include "core/Verifier.h"
#include "persist/Fingerprint.h"
#include "persist/ProofCache.h"
#include "program/CfgBuilder.h"
#include "reduction/CommutOracle.h"
#include "reduction/PreferenceOrder.h"
#include "runtime/ParallelPortfolio.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include <unistd.h>

using namespace seqver;
using workloads::WorkloadInstance;

namespace {

/// What one arm reports for one workload.
struct Outcome {
  core::Verdict V = core::Verdict::Unknown;
  Statistics Stats;
};

using ArmFn = std::function<Outcome(const WorkloadInstance &)>;

struct Arm {
  Arm(std::string Name, ArmFn Run, size_t Stride = 1)
      : Name(std::move(Name)), Run(std::move(Run)), Stride(Stride) {}
  std::string Name;
  ArmFn Run;
  /// Runs on every Stride-th workload of the axis's run list only.
  size_t Stride;
};

struct Suite {
  std::string Name;
  std::vector<WorkloadInstance> Workloads;
  /// Quick runs keep every third workload of the sampled suites, counted
  /// across them; an unsampled suite always runs in full.
  bool Sampled;
  /// Runs on each workload of the suite before its arms do.
  std::function<void(const WorkloadInstance &)> Prepare;
};

/// A counter of one arm.
struct Counter {
  std::string Arm, Name;
};

enum Scope { Total, PerSuite, PerWorkload };
enum Cmp { Less, LessEq, AtLeast };

/// 100*Lhs Op Pct*Rhs over the counters summed per group of workloads;
/// Rhs is the constant Bound (and Pct is 100) when Rhs.Arm is empty.
struct Relation {
  Scope Per;
  Counter Lhs;
  Cmp Op;
  Counter Rhs;
  int64_t Bound;
  /// Suites covered; empty means all.
  std::vector<std::string> Suites;
  /// PerWorkload only: skip workloads where this counter is zero; an
  /// empty counter covers every workload.
  Counter When;
  int64_t Pct = 100;
};

Relation compare(Scope Per, Counter Lhs, Cmp Op, Counter Rhs,
                 std::vector<std::string> Suites = {}, int64_t Pct = 100) {
  return {Per, std::move(Lhs), Op, std::move(Rhs), 0, std::move(Suites), {},
          Pct};
}

Relation bound(Scope Per, Counter Lhs, Cmp Op, int64_t Bound,
               std::vector<std::string> Suites = {}, Counter When = {}) {
  return {Per,   std::move(Lhs),    Op,          {},
          Bound, std::move(Suites), std::move(When)};
}

struct Axis {
  std::vector<Suite> Suites;
  std::vector<Arm> Arms;
  std::vector<Relation> Relations;
  /// Counters whose totals the report prints; no rule reads them.
  std::vector<Counter> Report;
};

struct Row {
  const Suite *S;
  const WorkloadInstance *W;
  /// Per arm; empty where the arm's stride skipped the workload.
  std::vector<std::optional<Outcome>> Out;
};

int64_t sum(const Axis &A, const std::vector<const Row *> &Rows,
            const Counter &C) {
  auto It = std::find_if(A.Arms.begin(), A.Arms.end(),
                         [&C](const Arm &Am) { return Am.Name == C.Arm; });
  if (It == A.Arms.end())
    throw std::logic_error("unknown arm '" + C.Arm + "'");
  int64_t Sum = 0;
  for (const Row *R : Rows)
    if (const auto &O = R->Out[static_cast<size_t>(It - A.Arms.begin())])
      Sum += O->Stats.get(C.Name);
  return Sum;
}

/// Checks R on every group of rows it covers and prints each group's line
/// (only the failures of a per-workload relation). Returns the failures.
int checkRelation(const Axis &A, const Relation &R,
                  const std::vector<Row> &Rows) {
  std::string Covered;
  for (const std::string &S : R.Suites)
    Covered += (Covered.empty() ? "" : ",") + S;
  std::map<std::string, std::vector<const Row *>> Groups;
  for (const Row &Rw : Rows)
    if (R.Suites.empty() || std::find(R.Suites.begin(), R.Suites.end(),
                                      Rw.S->Name) != R.Suites.end())
      Groups[R.Per == PerSuite      ? Rw.S->Name
             : R.Per == PerWorkload ? Rw.W->Name
             : Covered.empty()      ? "all"
                                    : Covered]
          .push_back(&Rw);
  const char *OpText[] = {"<", "<=", ">="};
  std::string Scale = R.Pct == 100 ? "" : std::to_string(R.Pct) + "% of ";
  std::string Rhs = R.Rhs.Arm.empty() ? std::to_string(R.Bound)
                                      : Scale + R.Rhs.Arm + "." + R.Rhs.Name;
  int Failed = 0;
  for (const auto &[Key, Group] : Groups) {
    if (!R.When.Arm.empty() && sum(A, Group, R.When) == 0)
      continue;
    int64_t L = sum(A, Group, R.Lhs);
    int64_t Rv = R.Rhs.Arm.empty() ? R.Bound : sum(A, Group, R.Rhs);
    int64_t SL = 100 * L, SR = R.Pct * Rv;
    bool Holds = R.Op == Less     ? SL < SR
                 : R.Op == LessEq ? SL <= SR
                                  : SL >= SR;
    Failed += !Holds;
    if (!Holds || R.Per != PerWorkload)
      std::printf("%s.%s %s %s [%s]: %lld %s %s%lld  %s\n",
                  R.Lhs.Arm.c_str(), R.Lhs.Name.c_str(), OpText[R.Op],
                  Rhs.c_str(), Key.c_str(), static_cast<long long>(L),
                  OpText[R.Op], Scale.c_str(), static_cast<long long>(Rv),
                  Holds ? "ok" : "FAILED");
  }
  return Failed;
}

/// Runs A and prints its report; returns the process exit code.
int runMatrix(const std::string &Name, const Axis &A, bool Quick) {
  std::vector<Row> Rows;
  size_t Sampled = 0;
  for (const Suite &S : A.Suites)
    for (const WorkloadInstance &W : S.Workloads) {
      if (!Quick || !S.Sampled || Sampled % 3 == 0)
        Rows.push_back({&S, &W, {}});
      Sampled += S.Sampled;
    }
  std::printf("check %s: %zu arm(s) on %zu workload(s)%s\n", Name.c_str(),
              A.Arms.size(), Rows.size(), Quick ? " (quick)" : "");

  int Mismatches = 0, Wrong = 0;
  for (size_t RI = 0; RI < Rows.size(); ++RI) {
    Row &R = Rows[RI];
    try {
      if (R.S->Prepare)
        R.S->Prepare(*R.W);
      for (const Arm &Am : A.Arms)
        R.Out.push_back(RI % Am.Stride == 0
                            ? std::optional<Outcome>(Am.Run(*R.W))
                            : std::nullopt);
    } catch (const std::exception &E) {
      std::fprintf(stderr, "error: %s: %s\n", R.W->Name.c_str(), E.what());
      return 2;
    }
    std::optional<core::Verdict> First;
    bool Agree = true, Expected = true;
    std::string Verdicts;
    for (size_t I = 0; I < A.Arms.size(); ++I) {
      if (!R.Out[I])
        continue;
      core::Verdict V = R.Out[I]->V;
      Agree = Agree && (!First || *First == V);
      First = First.value_or(V);
      Expected = Expected && (!core::isDecisive(V) ||
                              (V == core::Verdict::Correct) ==
                                  R.W->ExpectedCorrect);
      Verdicts += " " + A.Arms[I].Name + "=" + core::verdictName(V);
    }
    Mismatches += !Agree;
    Wrong += !Expected;
    std::string Note = Agree && Expected ? "" : "  <<" + Verdicts;
    if (!Expected)
      Note += " (expected the opposite)";
    std::printf("%-22s %-10s %s%s\n", R.W->Name.c_str(), R.S->Name.c_str(),
                Agree ? core::verdictName(*First).c_str() : "MISMATCH",
                Note.c_str());
  }

  std::vector<const Row *> All;
  for (const Row &R : Rows)
    All.push_back(&R);
  std::printf("\n");
  for (const Counter &C : A.Report)
    std::printf("total %-40s %12lld\n", (C.Arm + "." + C.Name).c_str(),
                static_cast<long long>(sum(A, All, C)));
  int Failed = 0;
  for (const Relation &R : A.Relations)
    Failed += checkRelation(A, R, Rows);

  if (Mismatches + Wrong + Failed == 0) {
    std::printf("all verdicts agree\n");
    return 0;
  }
  std::fprintf(stderr,
               "error: %d verdict mismatch(es), %d wrong decisive "
               "verdict(s), %d failed counter relation check(s)\n",
               Mismatches, Wrong, Failed);
  return 1;
}

/// Keeps the suites and arms named by Opts, and the relations and report
/// counters that read kept arms only. A total over a dropped suite is
/// dropped too. False if a name matches nothing.
bool keepOnly(Axis &A, const check::CheckOptions &Opts) {
  auto Keeps = [](const std::vector<std::string> &Names,
                  const std::string &Name) {
    return Names.empty() ||
           std::find(Names.begin(), Names.end(), Name) != Names.end();
  };
  size_t AllSuites = A.Suites.size();
  std::erase_if(A.Suites,
                [&](const Suite &S) { return !Keeps(Opts.Suites, S.Name); });
  auto Partial = [&](const Relation &R) {
    return R.Per == Total &&
           (R.Suites.empty() ? A.Suites.size() < AllSuites
                             : std::any_of(R.Suites.begin(), R.Suites.end(),
                                           [&](const std::string &S) {
                                             return !Keeps(Opts.Suites, S);
                                           }));
  };
  std::erase_if(A.Arms,
                [&](const Arm &Am) { return !Keeps(Opts.Arms, Am.Name); });
  auto Kept = [&A](const Counter &C) {
    return C.Arm.empty() ||
           std::any_of(A.Arms.begin(), A.Arms.end(),
                       [&C](const Arm &Am) { return Am.Name == C.Arm; });
  };
  std::erase_if(A.Relations, [&](const Relation &R) {
    return Partial(R) || !Kept(R.Lhs) || !Kept(R.Rhs) || !Kept(R.When);
  });
  std::erase_if(A.Report, [&](const Counter &C) { return !Kept(C); });
  return A.Suites.size() ==
             (Opts.Suites.empty() ? A.Suites.size() : Opts.Suites.size()) &&
         A.Arms.size() ==
             (Opts.Arms.empty() ? A.Arms.size() : Opts.Arms.size());
}

//===----------------------------------------------------------------------===//
// Arms
//===----------------------------------------------------------------------===//

prog::BuildResult build(const std::string &Source, smt::TermManager &TM) {
  prog::BuildResult B = prog::buildFromSource(Source, TM);
  if (!B.ok())
    throw std::runtime_error(B.Error);
  return B;
}

Outcome withWallMs(core::Verdict V, Statistics Stats, double Seconds) {
  Stats.add("wall_ms", static_cast<int64_t>(Seconds * 1000));
  return {V, std::move(Stats)};
}

using ProgramPrep =
    std::function<void(prog::ConcurrentProgram &, Statistics &)>;

/// One preference order (a portfolio order name) on W's program, after
/// Prep edits it.
ArmFn orderArm(core::VerifierConfig C, std::string Order,
               ProgramPrep Prep = {}) {
  return [C, Order, Prep](const WorkloadInstance &W) {
    smt::TermManager TM;
    prog::BuildResult B = build(W.Source, TM);
    Statistics Stats;
    if (Prep)
      Prep(*B.Program, Stats);
    core::VerificationResult R = core::runSingleOrder(*B.Program, C, Order);
    Stats.mergeFrom(R.Stats);
    return withWallMs(R.V, std::move(Stats), R.Seconds);
  };
}

/// The seq order on W's program, after Prep edits it.
ArmFn seqArm(core::VerifierConfig C, ProgramPrep Prep = {}) {
  return orderArm(std::move(C), "seq", std::move(Prep));
}

/// Every portfolio order on W's program, one after another and each to its
/// end, so no winner stops the others and the counters repeat. With
/// SharedOracle the orders share one fresh commutativity oracle: each
/// reuses what the earlier ones settled. The verdict is the first decisive
/// one in priority order.
ArmFn everyOrderArm(core::VerifierConfig C, bool SharedOracle) {
  return [C, SharedOracle](const WorkloadInstance &W) {
    smt::TermManager TM;
    prog::BuildResult B = build(W.Source, TM);
    red::CommutOracle Table;
    core::VerifierConfig Config = C;
    Config.SharedCommut = SharedOracle ? &Table : nullptr;
    Outcome O;
    double Seconds = 0;
    for (const auto &Order :
         red::makePortfolioOrders(*B.Program, C.RandSeedBase)) {
      Config.Order = Order.get();
      core::VerificationResult R = core::Verifier(*B.Program, Config).run();
      if (!core::isDecisive(O.V))
        O.V = R.V;
      O.Stats.mergeFrom(R.Stats);
      Seconds += R.Seconds;
    }
    return withWallMs(O.V, std::move(O.Stats), Seconds);
  };
}

/// W's own store under Dir. Programs that fingerprint alike (tier 1 has
/// five such pairs) would otherwise warm each other's cold runs.
std::string storeDir(const std::string &Dir, const WorkloadInstance &W) {
  return (std::filesystem::path(Dir) / W.Name).string();
}

/// The parallel portfolio race; counters are the workers' merged sinks.
/// With SharedOracle, the race gets a fresh shared commutativity oracle.
ArmFn raceArm(core::VerifierConfig C, runtime::ParallelConfig PC,
              bool SharedOracle = false) {
  return [C, PC, SharedOracle](const WorkloadInstance &W) {
    red::CommutOracle Table;
    runtime::ParallelConfig Race = PC;
    Race.SharedCommut = SharedOracle ? &Table : nullptr;
    runtime::ParallelPortfolioResult R =
        runtime::runPortfolioParallel(W.Source, C, Race);
    return withWallMs(R.Best.V, R.Merged, R.WallSeconds);
  };
}

/// Stores the proof of the safe loop_sum(4) under Bug's fingerprint, as a
/// "correct" record: a poisoned entry the Hoare gate must reject.
void poison(const core::VerifierConfig &C, const WorkloadInstance &Bug) {
  smt::TermManager SafeTM, BugTM;
  prog::BuildResult Safe = build(workloads::loopSumSource(4), SafeTM);
  prog::BuildResult Buggy = build(Bug.Source, BugTM);
  core::runSingleOrder(*Safe.Program, C, "seq"); // stores the proof
  persist::ProofCache Cache(C.CacheDir);
  persist::StoredProof Proof;
  if (!Cache.load(persist::fingerprintProgram(*Safe.Program), Proof))
    throw std::runtime_error("no stored proof of the safe program");
  Cache.store(persist::fingerprintProgram(*Buggy.Program), Proof);
}

//===----------------------------------------------------------------------===//
// Axes
//===----------------------------------------------------------------------===//

const std::vector<std::string> Tier1 = {"svcomp", "weaver", "loop_heavy",
                                        "affine"};

/// The first Count tier-1 suites, sampled by quick runs.
std::vector<Suite> tier1Suites(size_t Count = 4) {
  std::vector<WorkloadInstance> (*const Make[])() = {
      workloads::svcompLikeSuite, workloads::weaverLikeSuite,
      workloads::loopHeavySuite, workloads::affineSuite};
  std::vector<Suite> Out;
  for (size_t I = 0; I < Count; ++I)
    Out.push_back({Tier1[I], Make[I](), true, nullptr});
  return Out;
}

/// The four static configurations of the tiers axis, as edits of the
/// default (full) stack.
const std::pair<const char *, void (*)(core::VerifierConfig &)> TierArms[] = {
    {"full", [](core::VerifierConfig &) {}},
    {"no-karr", [](core::VerifierConfig &C) { C.KarrTier = false; }},
    {"seeded", [](core::VerifierConfig &C) { C.SeedProof = true; }},
    {"int-only",
     [](core::VerifierConfig &C) { C.OctagonTier = C.KarrTier = false; }}};

Axis tiersAxis(const core::VerifierConfig &Base, runtime::ParallelConfig,
               const std::string &) {
  Axis A{tier1Suites(), {}, {}, {}};
  // The rounds and semantic-check rules hold for whole suites only: quick
  // runs keep loop_heavy and affine in full.
  A.Suites[2].Sampled = A.Suites[3].Sampled = false;
  std::map<std::string, core::VerifierConfig> Tier;
  for (const auto &[Name, Edit] : TierArms) {
    Edit(Tier[Name] = Base);
    A.Arms.push_back({Name, seqArm(Tier[Name])});
  }
  core::VerifierConfig SeededNoKarr = Tier["seeded"];
  SeededNoKarr.KarrTier = false;
  A.Arms.push_back({"seeded/no-karr", seqArm(SeededNoKarr)});
  // Under seq the octagon and Karr sub-tiers change no round on tier 1;
  // under rand(1) they do, as proof-sensitive reduction depends on the
  // order.
  // The rand relations were measured on rand(1): pin its seed whatever
  // --rand-seed says.
  for (const char *Name : {"full", "int-only"}) {
    core::VerifierConfig C = Tier[Name];
    C.RandSeedBase = 0;
    A.Arms.push_back({std::string(Name) + "/rand", orderArm(C, "rand(1)")});
  }
  const std::vector<std::string> Loops = {"loop_heavy", "affine"};
  A.Relations = {
      compare(PerSuite, {"seeded", "rounds"}, Less, {"int-only", "rounds"},
              Loops),
      compare(PerSuite, {"full", "semantic_commut_checks"}, Less,
              {"int-only", "semantic_commut_checks"}, Loops),
      compare(PerSuite, {"full/rand", "rounds"}, Less,
              {"int-only/rand", "rounds"}, Loops),
      compare(PerSuite, {"seeded", "rounds"}, Less,
              {"seeded/no-karr", "rounds"}, {"affine"}),
      compare(PerWorkload, {"full/rand", "rounds"}, LessEq,
              {"int-only/rand", "rounds"})};
  A.Report = {{"full", "commut_octagon"},
              {"full", "commut_karr"},
              {"full", "semantic_commut_checks"},
              {"no-karr", "semantic_commut_checks"},
              {"int-only", "semantic_commut_checks"},
              {"seeded", "karr_seeded"},
              {"full", "rounds"},
              {"seeded", "rounds"},
              {"seeded/no-karr", "rounds"},
              {"int-only", "rounds"},
              {"full/rand", "rounds"},
              {"int-only/rand", "rounds"}};
  return A;
}

Axis parallelAxis(const core::VerifierConfig &Base,
                  runtime::ParallelConfig PC, const std::string &) {
  Axis A{tier1Suites(/*svcomp and weaver*/ 2), {}, {}, {}};
  runtime::ParallelConfig Sequential = PC;
  Sequential.Jobs = 1;
  A.Arms = {{"sequential", raceArm(Base, Sequential)},
            {"parallel", raceArm(Base, PC)}};
  A.Report = {{"sequential", "wall_ms"}, {"parallel", "wall_ms"}};
  return A;
}

Axis cacheAxis(const core::VerifierConfig &Base, runtime::ParallelConfig,
               const std::string &Dir) {
  auto InStore = [Base, Dir](const WorkloadInstance &W) {
    core::VerifierConfig C = Base;
    C.CacheDir = storeDir(Dir, W);
    return C;
  };
  Axis A{tier1Suites(), {}, {}, {}};
  A.Suites.push_back(
      {"poisoned",
       {{"loop_sum_poisoned", workloads::loopSumSource(4, true), false,
         "loop_heavy"}},
       /*Sampled=*/false,
       [InStore](const WorkloadInstance &W) { poison(InStore(W), W); }});
  ArmFn Cached = [InStore](const WorkloadInstance &W) {
    return seqArm(InStore(W))(W);
  };
  A.Arms = {{"cold", Cached}, {"warm", Cached}};
  A.Relations = {
      bound(Total, {"cold", "cache_hits"}, Less, 1, Tier1),
      bound(Total, {"warm", "cache_hits"}, AtLeast, 1, Tier1),
      compare(Total, {"warm", "rounds"}, Less, {"cold", "rounds"}, Tier1),
      bound(PerSuite, {"cold", "cache_hits"}, AtLeast, 1, {"poisoned"})};
  A.Report = {{"cold", "cache_misses"},      {"cold", "rounds"},
              {"warm", "rounds"},            {"warm", "cache_seeded"},
              {"warm", "rounds_saved_warm"}};
  return A;
}

Axis fusionAxis(const core::VerifierConfig &Base, runtime::ParallelConfig PC,
                const std::string &) {
  PC.PruneDeadEdges = PC.OctagonPrune = PC.KarrPrune = true;
  PC.FuseTransactions = true;
  Axis A{tier1Suites(), {}, {}, {}};
  // The strict-shrink rule holds for whole suites only: quick runs keep
  // loop_heavy and affine in full.
  A.Suites[2].Sampled = A.Suites[3].Sampled = false;
  auto Prune = [](prog::ConcurrentProgram &P, Statistics &) {
    analysis::pruneDeadEdges(P);
  };
  auto PruneFuse = [](prog::ConcurrentProgram &P, Statistics &S) {
    analysis::pruneDeadEdges(P);
    S.add("fusion_transactions", analysis::fuseTransactions(P).Transactions);
  };
  A.Arms = {{"unfused", seqArm(Base, Prune)},
            {"fused", seqArm(Base, PruneFuse)},
            {"par-fused", raceArm(Base, PC)}};
  Counter Unfused{"unfused", "visited_total"}, Fused{"fused", "visited_total"};
  A.Relations = {
      compare(PerSuite, Fused, LessEq, Unfused),
      compare(PerSuite, Fused, Less, Unfused, {"loop_heavy", "affine"}),
      bound(PerSuite, {"fused", "fusion_transactions"}, AtLeast, 1),
      bound(Total, {"par-fused", "fusion_transactions"}, AtLeast, 1)};
  // Each suite's fused state count stays within 15% of what the fused
  // seq arm explored on the full suite when this bound was set: svcomp
  // 1525, weaver 10233, loop_heavy 86, affine 54; each cap is
  // floor(1.15 * count). Quick runs sample svcomp and weaver, and so
  // stay under their caps.
  const std::pair<const char *, int64_t> FusedCaps[] = {
      {"svcomp", 1753}, {"weaver", 11767}, {"loop_heavy", 98}, {"affine", 62}};
  for (const auto &[Name, Cap] : FusedCaps)
    A.Relations.push_back(bound(PerSuite, Fused, LessEq, Cap, {Name}));
  return A;
}

Axis commutAxis(const core::VerifierConfig &Base, runtime::ParallelConfig PC,
                const std::string &) {
  // A one-job race: the orders run in priority order, so the cap sees the
  // same runs every time instead of racing winners.
  PC.Jobs = 1;
  Axis A{tier1Suites(), {}, {}, {}};
  // The sharing axis owns the savings of the shared oracle; this one caps
  // its query count in the race.
  A.Arms = {{"shared", raceArm(Base, PC, true)}};
  // Within 15% of the shared arm's count on the full suites when this
  // bound was set (3,929): floor(1.15 * 3929).
  A.Relations = {bound(Total, {"shared", "commut_semantic"}, LessEq, 4518)};
  A.Report = {{"shared", "commut_shared_hits"}};
  return A;
}

Axis sharingAxis(const core::VerifierConfig &Base, runtime::ParallelConfig,
                 const std::string &) {
  // The bluetooth family is refinement-bound: its semantic queries carry
  // each order's own proof predicates, which no sharing can deduplicate,
  // and they outnumber the rest of tier 1's.
  Axis A{tier1Suites(), {}, {}, {}};
  for (Suite &S : A.Suites)
    std::erase_if(S.Workloads, [](const WorkloadInstance &W) {
      return W.Family == "bluetooth";
    });
  // Every order runs to its end, as if no race stopped the losers: sharing
  // saves the queries a later order would ask again.
  A.Arms = {{"private", everyOrderArm(Base, false)},
            {"shared", everyOrderArm(Base, true)}};
  A.Relations = {compare(Total, {"shared", "commut_semantic"}, LessEq,
                         {"private", "commut_semantic"}, {}, 70)};
  A.Report = {{"private", "commut_semantic"},
              {"shared", "commut_semantic"},
              {"shared", "commut_shared_hits"}};
  return A;
}

Axis incrementalAxis(const core::VerifierConfig &Base,
                     runtime::ParallelConfig PC, const std::string &) {
  Axis A{tier1Suites(), {}, {}, {}};
  for (const auto &[Name, Edit] : TierArms) {
    // The full stack on every workload, the other tiers on every third.
    size_t Stride = std::string(Name) == "full" ? 1 : 3;
    std::string Inc = std::string(Name) + "/inc";
    std::string Fresh = std::string(Name) + "/fresh";
    core::VerifierConfig C = Base;
    Edit(C);
    C.IncrementalSmt = true;
    A.Arms.push_back({Inc, seqArm(C), Stride});
    C.IncrementalSmt = false;
    A.Arms.push_back({Fresh, seqArm(C), Stride});
    A.Relations.push_back(bound(PerWorkload, {Inc, "smt_sessions"}, AtLeast,
                                1, {}, {Fresh, "smt_queries"}));
  }
  PC.Jobs = 2;
  core::VerifierConfig C = Base;
  C.IncrementalSmt = true;
  A.Arms.push_back({"par/inc", raceArm(C, PC), 3});
  C.IncrementalSmt = false;
  A.Arms.push_back({"par/fresh", raceArm(C, PC), 3});
  // Sessions save at least 30% of the solver time over all of tier 1.
  A.Relations.push_back(compare(Total, {"full/inc", "smt_solver_us"}, LessEq,
                                {"full/fresh", "smt_solver_us"}, Tier1, 70));
  // Stored countermodels answer at least half of the Sat queries: the fresh
  // path poses the same query stream and solves every one of them.
  A.Relations.push_back(compare(Total, {"full/inc", "smt_sat_solves"}, LessEq,
                                {"full/fresh", "smt_sat_solves"}, Tier1, 50));
  A.Report = {{"full/inc", "smt_solver_us"},
              {"full/fresh", "smt_solver_us"},
              {"full/inc", "smt_sat_solves"},
              {"full/fresh", "smt_sat_solves"},
              {"full/inc", "smt_model_hits"},
              {"full/inc", "smt_model_tries"},
              {"full/inc", "smt_sessions"},
              {"full/inc", "smt_assumption_solves"},
              {"full/inc", "smt_theory_rounds"}};
  return A;
}

/// Builds an axis from the base config, the race config (--jobs) and the
/// temporary directory of the cache arms.
using AxisBuilder = Axis (*)(const core::VerifierConfig &,
                             runtime::ParallelConfig, const std::string &);
const std::pair<const char *, AxisBuilder> Axes[] = {
    {"tiers", tiersAxis},   {"parallel", parallelAxis},
    {"cache", cacheAxis},   {"fusion", fusionAxis},
    {"commut", commutAxis}, {"sharing", sharingAxis},
    {"incremental", incrementalAxis}};

} // namespace

bool seqver::check::isAxis(const std::string &Name) {
  return std::any_of(std::begin(Axes), std::end(Axes),
                     [&Name](const auto &A) { return Name == A.first; });
}

int seqver::check::runAxis(const std::string &Name,
                           const CheckOptions &Opts) {
  core::VerifierConfig Base;
  Base.TimeoutSeconds = Opts.TimeoutSeconds;
  Base.RandSeedBase = Opts.RandSeedBase;
  runtime::ParallelConfig PC;
  PC.Jobs = Opts.Jobs;
  // The cache arms keep their stores here; it starts empty.
  std::string Dir = (std::filesystem::temp_directory_path() /
                     ("seqver-check-" + Name + "-" + std::to_string(getpid())))
                        .string();
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  int Exit = 2;
  for (const auto &[AxisName, Make] : Axes) {
    if (Name != AxisName)
      continue;
    Axis A = Make(Base, PC, Dir);
    if (keepOnly(A, Opts))
      Exit = runMatrix(Name, A, Opts.Quick);
    else
      std::fprintf(stderr, "error: check %s: unknown suite or arm\n",
                   Name.c_str());
  }
  std::filesystem::remove_all(Dir, EC);
  return Exit;
}
