//===- tests/analysis_test.cpp - Static analysis subsystem tests ----------===//
///
/// \file
/// Unit tests for the dataflow framework and its passes: worklist fixpoint
/// termination and join correctness, the backward may-access analysis, lock
/// discovery with MustLock facts, the lockset race detector on the paper's
/// bluetooth example, interval/constant propagation with dead-edge pruning,
/// and the solver-free commutativity tier (staticallyUnsat and
/// StaticCommutativity::decide).
///
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/Dataflow.h"
#include "analysis/Karr.h"
#include "analysis/KarrProp.h"
#include "analysis/OctagonProp.h"
#include "analysis/StaticCommutativity.h"
#include "core/Portfolio.h"
#include "core/Proof.h"
#include "program/CfgBuilder.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace seqver;
using namespace seqver::analysis;
using seqver::automata::Letter;

namespace {

std::unique_ptr<prog::ConcurrentProgram> build(const std::string &Source,
                                               smt::TermManager &TM) {
  prog::BuildResult B = prog::buildFromSource(Source, TM);
  EXPECT_TRUE(B.ok()) << B.Error;
  return std::move(B.Program);
}

/// Source of a named instance from the SV-COMP-like suite.
std::string suiteSource(const std::string &Name) {
  for (const workloads::WorkloadInstance &W : workloads::svcompLikeSuite())
    if (W.Name == Name)
      return W.Source;
  ADD_FAILURE() << "no suite instance named " << Name;
  return "";
}

/// Letters belonging to one thread, in letter order.
std::vector<Letter> lettersOf(const prog::ConcurrentProgram &P, int Thread) {
  std::vector<Letter> Out;
  for (Letter L = 0; L < P.numLetters(); ++L)
    if (P.action(L).ThreadId == Thread)
      Out.push_back(L);
  return Out;
}

/// The first letter of Thread whose action writes a variable named Name.
Letter letterWriting(const prog::ConcurrentProgram &P, int Thread,
                     const std::string &Name) {
  smt::Term V = P.termManager().lookupVar(Name);
  for (Letter L : lettersOf(P, Thread))
    if (P.action(L).writesVar(V))
      return L;
  ADD_FAILURE() << "no action of thread " << Thread << " writes " << Name;
  return 0;
}

/// The static tier's verdict on A ~_Phi B, discharging the pair's
/// obligations as the commutativity checker builds them.
StaticTierVerdict decidePair(StaticCommutativity &Tier,
                             const prog::ConcurrentProgram &P, smt::Term Phi,
                             Letter A, Letter B) {
  return Tier.decide(Phi, A, B,
                     prog::commutationObligations(P.termManager(),
                                                  P.action(A), P.action(B)));
}

/// Source location of a letter within its thread CFG.
prog::Location sourceOf(const prog::ConcurrentProgram &P, Letter L) {
  const prog::ThreadCfg &Cfg = P.thread(P.action(L).ThreadId);
  for (prog::Location From = 0; From < Cfg.numLocations(); ++From)
    for (const auto &[Edge, To] : Cfg.Edges[From])
      if (Edge == L)
        return From;
  ADD_FAILURE() << "letter " << L << " has no edge";
  return 0;
}

prog::Location targetOf(const prog::ConcurrentProgram &P, Letter L) {
  const prog::ThreadCfg &Cfg = P.thread(P.action(L).ThreadId);
  for (prog::Location From = 0; From < Cfg.numLocations(); ++From)
    for (const auto &[Edge, To] : Cfg.Edges[From])
      if (Edge == L)
        return To;
  ADD_FAILURE() << "letter " << L << " has no edge";
  return 0;
}

//===----------------------------------------------------------------------===//
// Worklist engine
//===----------------------------------------------------------------------===//

/// Longest-path-length domain with saturation: join is max, transfer adds
/// one edge, widening jumps to the saturation cap. Diverges on cycles
/// without widening, so it exercises the engine's termination guard.
struct PathLenDomain {
  using Fact = int64_t;
  static constexpr int64_t Cap = 1 << 20;

  Fact boundary() const { return 0; }
  bool join(Fact &Into, const Fact &From) const {
    if (From > Into) {
      Into = From;
      return true;
    }
    return false;
  }
  std::optional<Fact> transfer(const prog::Action &, const Fact &In) const {
    return std::min(In + 1, Cap);
  }
  void widen(Fact &F) const { F = Cap; }
};

TEST(Dataflow, ForwardChainReachesExactFixpoint) {
  smt::TermManager TM;
  auto P = build("var int x := 0;\n"
                 "thread t { x := 1; x := 2; x := 3; }\n",
                 TM);
  DataflowSolver<PathLenDomain> Solver(*P, 0);
  uint64_t Transfers = Solver.run();
  const prog::ThreadCfg &Cfg = P->thread(0);
  // A 3-action chain: one transfer per edge, distance == depth.
  EXPECT_EQ(Transfers, 3u);
  ASSERT_NE(Solver.at(Cfg.InitialLoc), nullptr);
  EXPECT_EQ(*Solver.at(Cfg.InitialLoc), 0);
  for (prog::Location L = 0; L < Cfg.numLocations(); ++L)
    if (Cfg.isTerminal(L)) {
      ASSERT_NE(Solver.at(L), nullptr);
      EXPECT_EQ(*Solver.at(L), 3);
    }
}

TEST(Dataflow, WideningTerminatesOnLoop) {
  smt::TermManager TM;
  auto P = build("var int x := 0;\n"
                 "thread t { while (*) { x := x + 1; } }\n",
                 TM);
  DataflowSolver<PathLenDomain> Solver(*P, 0);
  Solver.run(); // would diverge without the widening guard
  const prog::ThreadCfg &Cfg = P->thread(0);
  ASSERT_NE(Solver.at(Cfg.InitialLoc), nullptr);
  // The loop head's max-distance saturates at the widening cover.
  EXPECT_EQ(*Solver.at(Cfg.InitialLoc), PathLenDomain::Cap);
}

TEST(Dataflow, BackwardDirectionSeedsTerminals) {
  smt::TermManager TM;
  auto P = build("var int x := 0;\nvar int y := 0;\n"
                 "thread t { x := 1; y := x + 1; }\n",
                 TM);
  // Backward distance-to-exit: the entry is two edges from the terminal.
  DataflowSolver<PathLenDomain> Solver(*P, 0, PathLenDomain(),
                                       Direction::Backward);
  Solver.run();
  const prog::ThreadCfg &Cfg = P->thread(0);
  ASSERT_NE(Solver.at(Cfg.InitialLoc), nullptr);
  EXPECT_EQ(*Solver.at(Cfg.InitialLoc), 2);
}

//===----------------------------------------------------------------------===//
// MayAccess (backward union)
//===----------------------------------------------------------------------===//

TEST(MayAccess, RemainingFootprintShrinksAlongThePath) {
  smt::TermManager TM;
  auto P = build("var int x := 0;\nvar int y := 0;\n"
                 "thread t { x := 1; y := x + 1; }\n",
                 TM);
  MayAccessAnalysis Accesses(*P);
  smt::Term X = TM.lookupVar("x");
  smt::Term Y = TM.lookupVar("y");

  const prog::ThreadCfg &Cfg = P->thread(0);
  const AccessSets &AtEntry = Accesses.at(0, Cfg.InitialLoc);
  EXPECT_TRUE(AtEntry.mayWrite(X));
  EXPECT_TRUE(AtEntry.mayWrite(Y));
  EXPECT_TRUE(AtEntry.mayRead(X));

  // After x := 1 only the y-assignment remains: reads x, writes y.
  prog::Location Mid = targetOf(*P, letterWriting(*P, 0, "x"));
  const AccessSets &AtMid = Accesses.at(0, Mid);
  EXPECT_FALSE(AtMid.mayWrite(X));
  EXPECT_TRUE(AtMid.mayWrite(Y));
  EXPECT_TRUE(AtMid.mayRead(X));

  // Nothing remains at the exit.
  prog::Location Exit = targetOf(*P, letterWriting(*P, 0, "y"));
  EXPECT_FALSE(Accesses.at(0, Exit).mayRead(X));
  EXPECT_FALSE(Accesses.at(0, Exit).mayWrite(Y));
}

//===----------------------------------------------------------------------===//
// Lock discovery and MustLock
//===----------------------------------------------------------------------===//

TEST(LockSet, DiscoversTestAndSetDiscipline) {
  smt::TermManager TM;
  auto P = build(suiteSource("mutex_safe_2"), TM);
  LockSetAnalysis Locks(*P);
  smt::Term M = TM.lookupVar("locked");
  ASSERT_TRUE(Locks.locks().isLock(M));

  // The critical-section increment runs with the lock must-held.
  Letter Incr = letterWriting(*P, 0, "critical");
  std::vector<smt::Term> Held = Locks.actionLockset(Incr);
  EXPECT_NE(std::find(Held.begin(), Held.end(), M), Held.end());
}

TEST(LockSet, TornAcquireDemotesTheLock) {
  smt::TermManager TM;
  // The bug variant splits `assume !locked` and `locked := true` into two
  // actions; the bare write disqualifies the discipline.
  auto P = build(suiteSource("mutex_bug_2"), TM);
  LockSetAnalysis Locks(*P);
  EXPECT_TRUE(Locks.locks().empty());
}

TEST(LockSet, MustHeldIsIntersectionAtJoins) {
  smt::TermManager TM;
  auto P = build("var bool m := false;\nvar int x := 0;\n"
                 "thread t {\n"
                 "  if (*) { atomic { assume !m; m := true; } }\n"
                 "  x := 1;\n"
                 "}\n"
                 "thread u { atomic { assume !m; m := true; } m := false; }\n",
                 TM);
  LockSetAnalysis Locks(*P);
  smt::Term M = TM.lookupVar("m");
  ASSERT_TRUE(Locks.locks().isLock(M));

  // Only one branch acquires m, so it is not must-held at the join.
  prog::Location Join = sourceOf(*P, letterWriting(*P, 0, "x"));
  EXPECT_TRUE(Locks.heldAt(0, Join).empty());

  // But it is must-held right after thread u's acquire.
  prog::Location AfterAcquire = targetOf(*P, letterWriting(*P, 1, "m"));
  const std::vector<smt::Term> &Held = Locks.heldAt(1, AfterAcquire);
  EXPECT_NE(std::find(Held.begin(), Held.end(), M), Held.end());
}

//===----------------------------------------------------------------------===//
// Race detector
//===----------------------------------------------------------------------===//

TEST(RaceDetector, ReportsTheBluetoothRace) {
  smt::TermManager TM;
  auto P = build(workloads::bluetoothSource(2, /*WithBug=*/true), TM);
  ProgramAnalysis A(*P);
  ASSERT_FALSE(A.races().raceFree());

  // The torn test-and-increment races on pendingIo (user vs user) and the
  // stop flag protocol races user-vs-stop; at least one reported pair must
  // involve the driver state.
  smt::Term PendingIo = TM.lookupVar("pendingIo");
  smt::Term StoppingFlag = TM.lookupVar("stoppingFlag");
  bool FoundDriverRace = false;
  for (const Race &R : A.races().races())
    for (smt::Term V : R.Vars)
      if (V == PendingIo || V == StoppingFlag)
        FoundDriverRace = true;
  EXPECT_TRUE(FoundDriverRace);
}

TEST(RaceDetector, LockProtectedBluetoothVariantIsRaceFree) {
  smt::TermManager TM;
  // Same driver state, but every access runs under one test-and-set lock:
  // the detector must not report a false race, and must witness the
  // protected pairs as statically independent.
  auto P = build("var bool m := false;\n"
                 "var int pendingIo := 1;\n"
                 "var bool stoppingFlag := false;\n"
                 "var bool stopped := false;\n"
                 "thread user {\n"
                 "  while (*) {\n"
                 "    atomic { assume !m; m := true; }\n"
                 "    assume !stoppingFlag;\n"
                 "    pendingIo := pendingIo + 1;\n"
                 "    m := false;\n"
                 "  }\n"
                 "}\n"
                 "thread stop {\n"
                 "  atomic { assume !m; m := true; }\n"
                 "  stoppingFlag := true;\n"
                 "  stopped := true;\n"
                 "  m := false;\n"
                 "}\n",
                 TM);
  ProgramAnalysis A(*P);
  EXPECT_TRUE(A.races().raceFree());
  EXPECT_FALSE(A.races().protectedPairs().empty());
}

TEST(RaceDetector, MutexWorkloadsSplitOnTheLockDiscipline) {
  smt::TermManager TM1;
  auto Safe = build(suiteSource("mutex_safe_2"), TM1);
  EXPECT_TRUE(RaceDetector(*Safe, LockSetAnalysis(*Safe)).raceFree());

  smt::TermManager TM2;
  auto Buggy = build(suiteSource("mutex_bug_2"), TM2);
  EXPECT_FALSE(RaceDetector(*Buggy, LockSetAnalysis(*Buggy)).raceFree());
}

//===----------------------------------------------------------------------===//
// Interval propagation and dead-edge pruning
//===----------------------------------------------------------------------===//

TEST(IntervalProp, ConstantsPropagateAndBranchesHull) {
  smt::TermManager TM;
  auto P = build("var int x := 0;\n"
                 "thread t {\n"
                 "  if (*) { x := 1; } else { x := 2; }\n"
                 "  assume x <= 5;\n"
                 "}\n",
                 TM);
  IntervalAnalysis Intervals(*P);
  smt::Term X = TM.lookupVar("x");

  // The join of the two branches is the source of the final assume.
  Letter Assume = 0;
  bool Found = false;
  for (Letter L : lettersOf(*P, 0))
    if (P->action(L).Writes.empty()) {
      Assume = L;
      Found = true;
    }
  ASSERT_TRUE(Found);
  prog::Location Join = sourceOf(*P, Assume);
  const Interval *AtJoin = Intervals.varAt(0, Join, X);
  ASSERT_NE(AtJoin, nullptr);
  EXPECT_TRUE(AtJoin->HasLo);
  EXPECT_TRUE(AtJoin->HasHi);
  EXPECT_EQ(AtJoin->Lo, 1);
  EXPECT_EQ(AtJoin->Hi, 2);

  // The fact discharges x <= 5 as an invariant of the join location.
  smt::Term Le5 = TM.mkLe(TM.sumOfVar(X), TM.sumOfConst(5));
  EXPECT_EQ(Intervals.evalAt(0, Join, Le5), Tri::True);
  smt::Term Ge3 = TM.mkGe(TM.sumOfVar(X), TM.sumOfConst(3));
  EXPECT_EQ(Intervals.evalAt(0, Join, Ge3), Tri::False);
}

TEST(IntervalProp, SharedVariablesAreNotTracked) {
  smt::TermManager TM;
  // Both threads write x: no thread may assume a per-location value for it.
  auto P = build("var int x := 0;\n"
                 "thread t { x := 1; assume x == 1; }\n"
                 "thread u { x := 2; }\n",
                 TM);
  IntervalAnalysis Intervals(*P);
  smt::Term X = TM.lookupVar("x");
  EXPECT_TRUE(Intervals.trackable(0).empty());
  const prog::ThreadCfg &Cfg = P->thread(0);
  for (prog::Location L = 0; L < Cfg.numLocations(); ++L)
    EXPECT_EQ(Intervals.varAt(0, L, X), nullptr);
  // In particular no edge may be pruned: `assume x == 1` can run.
  EXPECT_TRUE(Intervals.deadEdges().empty());
}

TEST(IntervalProp, PrunesDeadBranchAndPreservesVerdict) {
  smt::TermManager TM;
  const std::string Source = "var int x := 0;\nvar int y := 0;\n"
                             "thread t {\n"
                             "  x := 1;\n"
                             "  if (x == 2) { y := 5; }\n"
                             "  assert x <= 1;\n"
                             "}\n"
                             "thread u { y := y + 1; }\n";
  auto P = build(Source, TM);

  core::VerifierConfig Config;
  Config.TimeoutSeconds = 30;
  core::Verdict Before = core::runSingleOrder(*P, Config, "seq").V;
  EXPECT_EQ(Before, core::Verdict::Correct);

  IntervalAnalysis Intervals(*P);
  EXPECT_FALSE(Intervals.deadEdges().empty());
  uint32_t Removed = pruneDeadEdges(*P, {&Intervals});
  EXPECT_GE(Removed, 1u);

  // The dead `x == 2` branch is gone but the verdict is unchanged.
  EXPECT_EQ(core::runSingleOrder(*P, Config, "seq").V, Before);
}

TEST(IntervalProp, KeepsOneEdgeAtReachableDeadlockedLocations) {
  smt::TermManager TM;
  // `assume x == 1` never fires (x is the constant 0): the edge is dead,
  // but removing it would turn the blocked initial location into an exit
  // state. Only the unreachable successor's edge may go.
  auto P = build("var int x := 0;\n"
                 "thread t { assume x == 1; x := 2; }\n"
                 "thread u { x := x; }\n",
                 TM);
  // x is written by both threads, so gate on a trackable variant instead:
  // use a thread-local style constant.
  auto Q = build("var int x := 0;\nvar int y := 0;\n"
                 "thread t { assume x == 1; x := 2; }\n"
                 "thread u { y := y + 1; }\n",
                 TM);
  IntervalAnalysis Intervals(*Q);
  ASSERT_EQ(Intervals.deadEdges().size(), 2u); // the assume + its successor
  uint32_t Removed = pruneDeadEdges(*Q, {&Intervals});
  EXPECT_EQ(Removed, 1u);
  const prog::ThreadCfg &Cfg = Q->thread(0);
  EXPECT_EQ(Cfg.Edges[Cfg.InitialLoc].size(), 1u);
  (void)P;
}

//===----------------------------------------------------------------------===//
// staticallyUnsat — the solver-free decider
//===----------------------------------------------------------------------===//

class StaticUnsat : public ::testing::Test {
protected:
  smt::TermManager TM;
  smt::Term X = TM.mkVar("sx", smt::Sort::Int);
  smt::LinSum SX = TM.sumOfVar(X);
};

TEST_F(StaticUnsat, FalseConstant) {
  EXPECT_TRUE(staticallyUnsat(TM, TM.mkFalse()));
  EXPECT_FALSE(staticallyUnsat(TM, TM.mkTrue()));
}

TEST_F(StaticUnsat, ContradictoryBounds) {
  smt::Term Conflict = TM.mkAnd(TM.mkLe(SX, TM.sumOfConst(0)),
                                TM.mkGe(SX, TM.sumOfConst(1)));
  EXPECT_TRUE(staticallyUnsat(TM, Conflict));
  smt::Term Feasible = TM.mkAnd(TM.mkLe(SX, TM.sumOfConst(3)),
                                TM.mkGe(SX, TM.sumOfConst(1)));
  EXPECT_FALSE(staticallyUnsat(TM, Feasible));
}

TEST_F(StaticUnsat, DivisibilityConflict) {
  // 2x == 1 has no integer solution.
  smt::Term OddDouble =
      TM.mkEq(smt::TermManager::sumScale(SX, 2), TM.sumOfConst(1));
  EXPECT_TRUE(staticallyUnsat(TM, OddDouble));
}

TEST_F(StaticUnsat, EqualityThenDisequality) {
  smt::Term Pinned = TM.mkAnd(
      TM.mkEq(SX, TM.sumOfConst(4)),
      TM.mkNot(TM.mkEq(SX, TM.sumOfConst(4))));
  EXPECT_TRUE(staticallyUnsat(TM, Pinned));
}

TEST_F(StaticUnsat, DisjunctionNeedsAllBranchesUnsat) {
  smt::Term Dead = TM.mkAnd(TM.mkLe(SX, TM.sumOfConst(0)),
                            TM.mkGe(SX, TM.sumOfConst(1)));
  smt::Term Live = TM.mkGe(SX, TM.sumOfConst(0));
  EXPECT_FALSE(staticallyUnsat(TM, TM.mkOr(Dead, Live)));
}

//===----------------------------------------------------------------------===//
// Static commutativity tier
//===----------------------------------------------------------------------===//

TEST(StaticCommut, IdenticalIncrementsCommuteUnconditionally) {
  smt::TermManager TM;
  auto P = build("var int x := 0;\n"
                 "thread a { x := x + 1; }\n"
                 "thread b { x := x + 1; }\n",
                 TM);
  StaticCommutativity Tier(*P);
  Letter A = lettersOf(*P, 0).front();
  Letter B = lettersOf(*P, 1).front();
  EXPECT_EQ(decidePair(Tier, *P, nullptr, A, B), StaticTierVerdict::Interval);
  EXPECT_EQ(Tier.numProofs(), 1u);
}

TEST(StaticCommut, ConflictingStoresDoNotCommute) {
  smt::TermManager TM;
  auto P = build("var int x := 0;\n"
                 "thread a { x := 1; }\n"
                 "thread b { x := 2; }\n",
                 TM);
  StaticCommutativity Tier(*P);
  EXPECT_EQ(decidePair(Tier, *P, nullptr, lettersOf(*P, 0).front(),
                       lettersOf(*P, 1).front()),
            StaticTierVerdict::Unknown);
}

TEST(StaticCommut, IntervalFactsDischargeConditionalQueries) {
  smt::TermManager TM;
  // x := x + y commutes with y := 0 exactly when y == 0 already holds:
  // the residual obligation is phi /\ y != 0, which the interval decider
  // kills for phi = (y == 0).
  auto P = build("var int x := 0;\nvar int y := 0;\n"
                 "thread a { x := x + y; }\n"
                 "thread b { y := 0; }\n",
                 TM);
  StaticCommutativity Tier(*P);
  Letter A = lettersOf(*P, 0).front();
  Letter B = lettersOf(*P, 1).front();
  EXPECT_EQ(decidePair(Tier, *P, nullptr, A, B), StaticTierVerdict::Unknown);

  smt::Term Phi = TM.mkEqZero(TM.sumOfVar(TM.lookupVar("y")));
  EXPECT_EQ(decidePair(Tier, *P, Phi, A, B), StaticTierVerdict::Interval);
}

//===----------------------------------------------------------------------===//
// End-to-end: the tier inside the verifier
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// Octagon domain
//===----------------------------------------------------------------------===//

class OctagonDbm : public ::testing::Test {
protected:
  smt::TermManager TM;
  smt::Term X = TM.mkVar("ox", smt::Sort::Int);
  smt::Term Y = TM.mkVar("oy", smt::Sort::Int);
  Octagon O{std::vector<smt::Term>{X, Y}};
  int KX = O.indexOf(X);
  int KY = O.indexOf(Y);

  smt::LinSum diffXY() {
    return smt::TermManager::sumAdd(
        TM.sumOfVar(X), smt::TermManager::sumScale(TM.sumOfVar(Y), -1));
  }
};

TEST_F(OctagonDbm, ClosurePropagatesThroughDifferences) {
  // x - y <= 2 and y <= 3 entail x <= 5 only after closure.
  O.addBinary(KX, 1, KY, -1, 2);
  O.addUnary(KY, 1, 3);
  ASSERT_TRUE(O.close());
  Interval IX = O.intervalOf(KX);
  ASSERT_TRUE(IX.HasHi);
  EXPECT_EQ(IX.Hi, 5);
  EXPECT_FALSE(IX.HasLo); // nothing bounds x from below
}

TEST_F(OctagonDbm, ContradictoryDifferencesCloseToEmpty) {
  // x - y <= -1 and y - x <= -1 sum to 0 <= -2.
  O.addBinary(KX, 1, KY, -1, -1);
  O.addBinary(KY, 1, KX, -1, -1);
  EXPECT_FALSE(O.close());
  EXPECT_TRUE(O.isEmpty());
}

TEST_F(OctagonDbm, JoinIsTheIntervalHull) {
  O.addUnary(KX, 1, 1);
  O.addUnary(KX, -1, -1); // x == 1
  ASSERT_TRUE(O.close());
  Octagon Other(std::vector<smt::Term>{X, Y});
  Other.addUnary(Other.indexOf(X), 1, 3);
  Other.addUnary(Other.indexOf(X), -1, -3); // x == 3
  ASSERT_TRUE(Other.close());
  O.joinWith(Other);
  Interval IX = O.intervalOf(KX);
  ASSERT_TRUE(IX.HasLo && IX.HasHi);
  EXPECT_EQ(IX.Lo, 1);
  EXPECT_EQ(IX.Hi, 3);
}

TEST_F(OctagonDbm, ShiftAssignmentTranslatesRelations) {
  // From x - y <= 0, the exact transfer of x := x + 5 is x - y <= 5.
  O.addBinary(KX, 1, KY, -1, 0);
  ASSERT_TRUE(O.close());
  O.assignShift(KX, 1, 5);
  Interval Diff = O.rangeOfSum(diffXY());
  ASSERT_TRUE(Diff.HasHi);
  EXPECT_EQ(Diff.Hi, 5);
}

TEST_F(OctagonDbm, AssumeAndEvalRoundTrip) {
  smt::Term Formula =
      TM.mkAnd(TM.mkLe(diffXY(), TM.sumOfConst(2)),
               TM.mkLe(TM.sumOfVar(Y), TM.sumOfConst(3)));
  ASSERT_TRUE(octagonAssume(O, TM, Formula));
  EXPECT_EQ(octagonEval(TM, O,
                        TM.mkLe(TM.sumOfVar(X), TM.sumOfConst(5))),
            Tri::True);
  EXPECT_EQ(octagonEval(TM, O,
                        TM.mkLe(TM.sumOfVar(X), TM.sumOfConst(4))),
            Tri::Unknown);
  EXPECT_EQ(octagonEval(TM, O,
                        TM.mkGe(TM.sumOfVar(X), TM.sumOfConst(6))),
            Tri::False);
}

//===----------------------------------------------------------------------===//
// Octagon propagation (thread-modular)
//===----------------------------------------------------------------------===//

TEST(OctagonProp, NarrowingRecoversNestedLoopBounds) {
  smt::TermManager TM;
  // Loop bound 3 is off the widening threshold chain (…, 2, 4, …): the
  // ascending pass overshoots the loop counters and only the descending
  // (narrowing) pass recovers i == 3 at the exit.
  auto P = build("var int i := 0;\nvar int j := 0;\n"
                 "thread t {\n"
                 "  while (i < 3) {\n"
                 "    j := 0;\n"
                 "    while (j < 3) { j := j + 1; }\n"
                 "    i := i + 1;\n"
                 "  }\n"
                 "}\n",
                 TM);
  OctagonAnalysis Oct(*P);
  smt::Term I = TM.lookupVar("i");
  smt::Term EqThree = TM.mkEq(TM.sumOfVar(I), TM.sumOfConst(3));
  const prog::ThreadCfg &Cfg = P->thread(0);
  bool CheckedTerminal = false;
  for (prog::Location L = 0; L < Cfg.numLocations(); ++L)
    if (Cfg.isTerminal(L) && Oct.reachable(0, L)) {
      EXPECT_EQ(Oct.evalAt(0, L, EqThree), Tri::True);
      CheckedTerminal = true;
    }
  EXPECT_TRUE(CheckedTerminal);
}

TEST(OctagonProp, RelationalLoopInvariantOnLoopSum) {
  smt::TermManager TM;
  auto P = build(workloads::loopSumSource(5), TM);
  OctagonAnalysis Oct(*P);
  // `total == i` is invariant at the worker's loop head; intervals lose
  // both variables to widening, octagons keep the difference at 0.
  smt::Term Total = TM.lookupVar("total");
  smt::Term I = TM.lookupVar("i");
  smt::Term Eq = TM.mkEq(TM.sumOfVar(Total), TM.sumOfVar(I));
  const prog::ThreadCfg &Cfg = P->thread(0);
  EXPECT_EQ(Oct.evalAt(0, Cfg.InitialLoc, Eq), Tri::True);
  EXPECT_GT(Oct.numRelationalLocations(), 0u);
}

TEST(OctagonProp, FindsDeadEdgesBeyondIntervals) {
  smt::TermManager TM;
  // x - y == 0 is invariant through the lockstep loop; `assume x - y >= 1`
  // is relationally dead but interval-feasible (both vars are [0, +inf)).
  auto P = build("var int x := 0;\nvar int y := 0;\n"
                 "thread t {\n"
                 "  while (*) { x := x + 1; y := y + 1; }\n"
                 "  assume x - y >= 1;\n"
                 "  x := 42;\n"
                 "}\n",
                 TM);
  IntervalAnalysis Intervals(*P);
  EXPECT_TRUE(Intervals.deadEdges().empty());
  OctagonAnalysis Oct(*P);
  EXPECT_FALSE(Oct.deadEdges().empty());
  // The merged pruning removes what only the octagons can justify.
  uint32_t Removed = pruneDeadEdges(*P, {&Intervals, &Oct});
  EXPECT_GE(Removed, 1u);
}

TEST(OctagonProp, SeedPredicatesAreDeduplicatedAndCapped) {
  smt::TermManager TM;
  auto P = build(workloads::loopSumSource(5), TM);
  OctagonAnalysis Oct(*P);
  std::vector<smt::Term> Seeds = Oct.seedPredicates(/*MaxSeeds=*/4);
  EXPECT_FALSE(Seeds.empty());
  EXPECT_LE(Seeds.size(), 4u);
  std::set<smt::Term> Unique(Seeds.begin(), Seeds.end());
  EXPECT_EQ(Unique.size(), Seeds.size());
}

//===----------------------------------------------------------------------===//
// Karr affine-equality domain
//===----------------------------------------------------------------------===//

class KarrDomain : public ::testing::Test {
protected:
  smt::TermManager TM;
  smt::Term X = TM.mkVar("kx", smt::Sort::Int);
  smt::Term Y = TM.mkVar("ky", smt::Sort::Int);
  AffineSystem S{std::vector<smt::Term>{X, Y}};

  /// Coefficient vector for A*x + B*y over S's id-sorted universe.
  std::vector<Rational> coeffs(const AffineSystem &Sys, int64_t A,
                               int64_t B) {
    std::vector<Rational> Out(Sys.numVars(), Rational(0));
    Out[static_cast<size_t>(Sys.indexOf(X))] = Rational(A);
    Out[static_cast<size_t>(Sys.indexOf(Y))] = Rational(B);
    return Out;
  }
};

TEST_F(KarrDomain, EchelonizationPinsSolutionsAndRefutesConflicts) {
  // x + y == 3 and x - y == 1 have the unique solution (2, 1); reduction
  // to echelon form must expose both pins.
  EXPECT_TRUE(S.addEquality(coeffs(S, 1, 1), Rational(3)));
  EXPECT_TRUE(S.addEquality(coeffs(S, 1, -1), Rational(1)));
  std::optional<Rational> VX = S.valueOfSum(TM.sumOfVar(X));
  std::optional<Rational> VY = S.valueOfSum(TM.sumOfVar(Y));
  ASSERT_TRUE(VX && VY);
  EXPECT_EQ(*VX, Rational(2));
  EXPECT_EQ(*VY, Rational(1));
  // x == 5 now contradicts x == 2: the system becomes empty.
  EXPECT_FALSE(S.addEquality(coeffs(S, 1, 0), Rational(5)));
  EXPECT_TRUE(S.isEmpty());
}

TEST_F(KarrDomain, RedundantRowsLeaveCanonicalFormUnchanged) {
  EXPECT_TRUE(S.addEquality(coeffs(S, 2, -1), Rational(0))); // y == 2x
  AffineSystem Before = S;
  // 4x - 2y == 0 is the same hyperplane; the canonical form must not grow.
  EXPECT_TRUE(S.addEquality(coeffs(S, 4, -2), Rational(0)));
  EXPECT_EQ(S, Before);
  EXPECT_EQ(S.rows().size(), 1u);
}

TEST_F(KarrDomain, JoinIsTheAffineHull) {
  // Hull of the points (0,0) and (1,2) is the line y == 2x: the join must
  // keep exactly the equality 2x - y == 0 and drop the individual pins.
  AffineSystem P1 = S, P2 = S;
  ASSERT_TRUE(P1.addEquality(coeffs(P1, 1, 0), Rational(0)));
  ASSERT_TRUE(P1.addEquality(coeffs(P1, 0, 1), Rational(0)));
  ASSERT_TRUE(P2.addEquality(coeffs(P2, 1, 0), Rational(1)));
  ASSERT_TRUE(P2.addEquality(coeffs(P2, 0, 1), Rational(2)));
  EXPECT_TRUE(P1.joinWith(P2));
  smt::LinSum TwoXMinusY = smt::TermManager::sumAdd(
      smt::TermManager::sumScale(TM.sumOfVar(X), 2),
      smt::TermManager::sumScale(TM.sumOfVar(Y), -1));
  EXPECT_EQ(P1.impliesEqZero(TwoXMinusY), +1);
  EXPECT_EQ(P1.valueOfSum(TM.sumOfVar(X)), std::nullopt); // pin is gone
  // A third point on the line adds nothing (no change), one off the line
  // collapses the system to top — and the chain stops there: dimension
  // only ever grows, so at most numVars()+1 proper joins can happen.
  AffineSystem P3 = S;
  ASSERT_TRUE(P3.addEquality(coeffs(P3, 1, 0), Rational(3)));
  ASSERT_TRUE(P3.addEquality(coeffs(P3, 0, 1), Rational(6)));
  EXPECT_FALSE(P1.joinWith(P3));
  AffineSystem Off = S;
  ASSERT_TRUE(Off.addEquality(coeffs(Off, 1, 0), Rational(1)));
  ASSERT_TRUE(Off.addEquality(coeffs(Off, 0, 1), Rational(0)));
  EXPECT_TRUE(P1.joinWith(Off));
  EXPECT_TRUE(P1.isTop());
  EXPECT_FALSE(P1.joinWith(P2)); // top is absorbing: the chain is finite
}

TEST_F(KarrDomain, ForgetProjectsExistentially) {
  // x == 2 and y == 2x pin y == 4; havocking x must keep the x-free
  // consequence y == 4 and drop everything about x.
  ASSERT_TRUE(S.addEquality(coeffs(S, 1, 0), Rational(2)));
  ASSERT_TRUE(S.addEquality(coeffs(S, -2, 1), Rational(0)));
  S.forget(S.indexOf(X));
  EXPECT_EQ(S.valueOfSum(TM.sumOfVar(X)), std::nullopt);
  std::optional<Rational> VY = S.valueOfSum(TM.sumOfVar(Y));
  ASSERT_TRUE(VY);
  EXPECT_EQ(*VY, Rational(4));
  // A purely relational fact with no x-free consequence vanishes entirely.
  AffineSystem R{std::vector<smt::Term>{X, Y}};
  ASSERT_TRUE(R.addEquality(coeffs(R, 1, -1), Rational(0)));
  R.forget(R.indexOf(X));
  EXPECT_TRUE(R.isTop());
}

TEST_F(KarrDomain, AssumeOfContradictedDisequalityIsInfeasible) {
  // The system pins x == 2; assuming x != 2 must report infeasibility,
  // while x != 3 is simply implied and changes nothing.
  ASSERT_TRUE(S.addEquality(coeffs(S, 1, 0), Rational(2)));
  smt::Term EqTwo = TM.mkEq(TM.sumOfVar(X), TM.sumOfConst(2));
  EXPECT_FALSE(karrAssume(S, TM, TM.mkNot(EqTwo)));
  EXPECT_TRUE(S.isEmpty());
  AffineSystem T{std::vector<smt::Term>{X, Y}};
  ASSERT_TRUE(T.addEquality(coeffs(T, 1, 0), Rational(2)));
  smt::Term EqThree = TM.mkEq(TM.sumOfVar(X), TM.sumOfConst(3));
  EXPECT_TRUE(karrAssume(T, TM, TM.mkNot(EqThree)));
  EXPECT_FALSE(T.isEmpty());
}

TEST_F(KarrDomain, StaticallyUnsatAffineRefutesNonUnitConflicts) {
  // (x == 2y) /\ (x == 2y + 1) subtracts to 0 == 1, but the witness row
  // x - 2y carries a non-unit coefficient and pins no single variable:
  // the interval decider (pins + substitution) and the octagon decider
  // (unit-coefficient differences) both pass, only the affine one refutes.
  smt::LinSum TwoY = smt::TermManager::sumScale(TM.sumOfVar(Y), 2);
  smt::Term XEq2Y = TM.mkEq(TM.sumOfVar(X), TwoY);
  smt::Term XEq2YPlus1 = TM.mkEq(
      TM.sumOfVar(X), smt::TermManager::sumAdd(TwoY, TM.sumOfConst(1)));
  smt::Term Conflict = TM.mkAnd(XEq2Y, XEq2YPlus1);
  EXPECT_FALSE(staticallyUnsat(TM, Conflict));
  EXPECT_FALSE(staticallyUnsatRelational(TM, Conflict));
  EXPECT_TRUE(staticallyUnsatAffine(TM, Conflict));
  smt::Term Feasible = TM.mkAnd(
      XEq2Y, TM.mkNot(TM.mkEq(TM.sumOfVar(X), TM.sumOfConst(6))));
  EXPECT_FALSE(staticallyUnsatAffine(TM, Feasible));
}

//===----------------------------------------------------------------------===//
// Karr propagation (thread-modular)
//===----------------------------------------------------------------------===//

TEST(KarrProp, NonUnitLoopInvariantOnAffineSum) {
  smt::TermManager TM;
  auto P = build(workloads::affineSumSource(5), TM);
  KarrAnalysis Karr(*P);
  // `total == 2*i` is invariant at the worker's loop head; intervals lose
  // both variables to widening and octagons cannot express the non-unit
  // coefficient, but the affine fixpoint keeps it exactly — no widening
  // is involved, so the loop must still terminate.
  smt::Term Total = TM.lookupVar("total");
  smt::Term I = TM.lookupVar("i");
  smt::Term Eq = TM.mkEq(TM.sumOfVar(Total),
                         smt::TermManager::sumScale(TM.sumOfVar(I), 2));
  const prog::ThreadCfg &Cfg = P->thread(0);
  EXPECT_EQ(Karr.evalAt(0, Cfg.InitialLoc, Eq), Tri::True);
  EXPECT_GT(Karr.numAffineLocations(), 0u);
  OctagonAnalysis Oct(*P);
  EXPECT_NE(Oct.evalAt(0, Cfg.InitialLoc, Eq), Tri::True);
}

TEST(KarrProp, StridePairKeepsTheCoupling) {
  smt::TermManager TM;
  auto P = build(workloads::stridePairSource(5), TM);
  KarrAnalysis Karr(*P);
  smt::Term J = TM.lookupVar("j");
  smt::Term I = TM.lookupVar("i");
  smt::Term Eq = TM.mkEq(TM.sumOfVar(J),
                         smt::TermManager::sumScale(TM.sumOfVar(I), 2));
  const prog::ThreadCfg &Cfg = P->thread(0);
  EXPECT_EQ(Karr.evalAt(0, Cfg.InitialLoc, Eq), Tri::True);
}

TEST(KarrProp, SharedVariablesAreNotTracked) {
  smt::TermManager TM;
  // Both threads write x: no thread's equality system may mention it.
  auto P = build("var int x := 0;\n"
                 "thread t { x := 2; assume x == 2; }\n"
                 "thread u { x := 3; }\n",
                 TM);
  KarrAnalysis Karr(*P);
  EXPECT_TRUE(Karr.trackable(0).empty());
  EXPECT_TRUE(Karr.deadEdges().empty());
}

TEST(KarrProp, SeedPredicatesAreDeduplicatedAndCapped) {
  smt::TermManager TM;
  auto P = build(workloads::affineSumSource(5), TM);
  KarrAnalysis Karr(*P);
  std::vector<smt::Term> Seeds = Karr.seedPredicates(/*MaxSeeds=*/4);
  EXPECT_FALSE(Seeds.empty());
  EXPECT_LE(Seeds.size(), 4u);
  std::set<smt::Term> Unique(Seeds.begin(), Seeds.end());
  EXPECT_EQ(Unique.size(), Seeds.size());
}

TEST(KarrProp, RegisteredLastInTierOrder) {
  smt::TermManager TM;
  auto P = build("var int x := 0;\nthread t { x := 1; }\n", TM);
  ProgramAnalysis PA(*P);
  std::vector<const InvariantSource *> Sources = PA.invariantSources();
  ASSERT_EQ(Sources.size(), 3u);
  EXPECT_STREQ(Sources[0]->name(), "interval");
  EXPECT_STREQ(Sources[1]->name(), "octagon");
  EXPECT_STREQ(Sources[2]->name(), "karr");
}

//===----------------------------------------------------------------------===//
// Relational solver-free decider and the conditional tier
//===----------------------------------------------------------------------===//

TEST(StaticUnsatRelational, RefutesDifferenceConflicts) {
  smt::TermManager TM;
  smt::Term X = TM.mkVar("rx", smt::Sort::Int);
  smt::Term Y = TM.mkVar("ry", smt::Sort::Int);
  smt::LinSum Diff = smt::TermManager::sumAdd(
      TM.sumOfVar(X), smt::TermManager::sumScale(TM.sumOfVar(Y), -1));
  // (x - y <= -1) /\ (y - x <= -1) is relationally infeasible but has no
  // single-variable witness, so the interval decider cannot see it.
  smt::Term Conflict =
      TM.mkAnd(TM.mkLe(Diff, TM.sumOfConst(-1)),
               TM.mkLe(smt::TermManager::sumScale(Diff, -1),
                       TM.sumOfConst(-1)));
  EXPECT_FALSE(staticallyUnsat(TM, Conflict));
  EXPECT_TRUE(staticallyUnsatRelational(TM, Conflict));

  smt::Term Feasible = TM.mkLe(Diff, TM.sumOfConst(-1));
  EXPECT_FALSE(staticallyUnsatRelational(TM, Feasible));
}

TEST(StaticCommut, OctagonContextDischargesConditionalPairs) {
  smt::TermManager TM;
  // x := x + u vs x := 0 commute exactly when u == 0; the invariant u == 0
  // holds at the source of thread a's x-write, so the conditional tier
  // settles the pair that the location-free tier cannot.
  auto P = build("var int x := 0;\nvar int u := 5;\n"
                 "thread a { u := 0; x := x + u; }\n"
                 "thread b { x := 0; }\n",
                 TM);
  StaticCommutativity Tier(*P);
  Letter A = letterWriting(*P, 0, "x");
  Letter B = letterWriting(*P, 1, "x");
  EXPECT_EQ(decidePair(Tier, *P, nullptr, A, B), StaticTierVerdict::Unknown);

  OctagonAnalysis Oct(*P);
  Tier.setInvariantContext({&Oct});
  EXPECT_EQ(decidePair(Tier, *P, nullptr, A, B), StaticTierVerdict::Octagon);
  EXPECT_GE(Tier.numOctProofs(), 1u);
}

TEST(StaticCommut, KarrContextDischargesConditionalPairs) {
  smt::TermManager TM;
  // Same conditional pair as above, but with only the Karr source in the
  // registry: the strengthening invariant (u == 0 at the x-write's source)
  // now comes from the affine tier, and the verdict must say so.
  auto P = build("var int x := 0;\nvar int u := 5;\n"
                 "thread a { u := 0; x := x + u; }\n"
                 "thread b { x := 0; }\n",
                 TM);
  StaticCommutativity Tier(*P);
  Letter A = letterWriting(*P, 0, "x");
  Letter B = letterWriting(*P, 1, "x");
  EXPECT_EQ(decidePair(Tier, *P, nullptr, A, B), StaticTierVerdict::Unknown);

  KarrAnalysis Karr(*P);
  Tier.setInvariantContext({&Karr});
  EXPECT_EQ(decidePair(Tier, *P, nullptr, A, B), StaticTierVerdict::Karr);
  EXPECT_GE(Tier.numKarrProofs(), 1u);
}

TEST(StaticCommut, RegistryOrderCreditsTheEarlierSource) {
  smt::TermManager TM;
  // With both sources registered in canonical order, the octagon tier's
  // invariants already settle the pair, so the cheaper source is credited
  // and the Karr counters stay untouched.
  auto P = build("var int x := 0;\nvar int u := 5;\n"
                 "thread a { u := 0; x := x + u; }\n"
                 "thread b { x := 0; }\n",
                 TM);
  StaticCommutativity Tier(*P);
  Letter A = letterWriting(*P, 0, "x");
  Letter B = letterWriting(*P, 1, "x");
  OctagonAnalysis Oct(*P);
  KarrAnalysis Karr(*P);
  Tier.setInvariantContext({&Oct, &Karr});
  EXPECT_EQ(decidePair(Tier, *P, nullptr, A, B), StaticTierVerdict::Octagon);
  EXPECT_EQ(Tier.numKarrProofs(), 0u);
}

//===----------------------------------------------------------------------===//
// Proof seeding
//===----------------------------------------------------------------------===//

TEST(ProofSeeding, NonInductiveSeedNeverEntersTheAutomaton) {
  smt::TermManager TM;
  prog::BuildResult B =
      prog::buildFromSource("var int x := 0; thread t { x := x + 1; }", TM);
  ASSERT_TRUE(B.ok()) << B.Error;
  smt::QueryEngine QE(TM);
  prog::FreshVarSource Fresh(TM);
  core::ProofAutomaton Proof(TM, QE, Fresh, *B.Program);

  smt::Term X = TM.lookupVar("x");
  smt::Term LeZero = TM.mkLe(TM.sumOfVar(X), TM.sumOfConst(0));
  // mkTrue and mkFalse seeds are dropped; only x <= 0 is new.
  size_t Added =
      Proof.addSeedPredicates({TM.mkTrue(), LeZero, TM.mkFalse(), LeZero});
  EXPECT_EQ(Added, 1u);

  // x <= 0 holds initially (x == 0) but is not inductive under x := x + 1:
  // the Hoare gate drops it from the post-state, so a bad seed can never
  // certify anything.
  core::PredSet Init = Proof.initialSet();
  uint32_t Id = Proof.addPredicate(LeZero); // dedup lookup
  EXPECT_TRUE(std::count(Init.begin(), Init.end(), Id));
  const core::PredSet &Next = Proof.step(Init, 0);
  EXPECT_FALSE(std::count(Next.begin(), Next.end(), Id));
}

TEST(ProofSeeding, SeededVerifierStaysSoundOnBuggyLoops) {
  core::VerifierConfig Config;
  Config.TimeoutSeconds = 30;
  Config.SeedProof = true;
  {
    smt::TermManager TM;
    auto P = build(workloads::loopSumSource(4, /*WithBug=*/true), TM);
    EXPECT_EQ(core::runSingleOrder(*P, Config, "seq").V,
              core::Verdict::Incorrect);
  }
  {
    smt::TermManager TM;
    auto P = build(workloads::chaseSource(/*WithBug=*/true), TM);
    EXPECT_EQ(core::runSingleOrder(*P, Config, "seq").V,
              core::Verdict::Incorrect);
  }
}

TEST(ProofSeeding, SeededVerifierProvesLoopSumWithoutExtraRounds) {
  core::VerifierConfig Seeded;
  Seeded.TimeoutSeconds = 30;
  Seeded.SeedProof = true;
  core::VerifierConfig Unseeded;
  Unseeded.TimeoutSeconds = 30;

  smt::TermManager TM1;
  auto P1 = build(workloads::loopSumSource(4), TM1);
  core::VerificationResult S = core::runSingleOrder(*P1, Seeded, "seq");
  smt::TermManager TM2;
  auto P2 = build(workloads::loopSumSource(4), TM2);
  core::VerificationResult U = core::runSingleOrder(*P2, Unseeded, "seq");

  EXPECT_EQ(S.V, core::Verdict::Correct);
  EXPECT_EQ(U.V, core::Verdict::Correct);
  // Seeding hands round 0 the loop invariant; it must never cost rounds.
  EXPECT_LE(S.Rounds, U.Rounds);
}

TEST(ProofSeeding, NonInductiveKarrSeedIsRejectedByTheHoareGate) {
  smt::TermManager TM;
  prog::BuildResult B =
      prog::buildFromSource("var int x := 0; thread t { x := x + 2; }", TM);
  ASSERT_TRUE(B.ok()) << B.Error;
  smt::QueryEngine QE(TM);
  prog::FreshVarSource Fresh(TM);
  core::ProofAutomaton Proof(TM, QE, Fresh, *B.Program);

  // x == 0 is exactly the kind of atom the Karr analysis seeds (the pin at
  // the initial location). It holds initially but is not inductive under
  // x := x + 2: the Hoare gate must drop it from the post-state, so an
  // affine seed can never certify anything by itself.
  smt::Term X = TM.lookupVar("x");
  smt::Term EqZero = TM.mkEq(TM.sumOfVar(X), TM.sumOfConst(0));
  ASSERT_EQ(Proof.addSeedPredicates({EqZero}), 1u);
  core::PredSet Init = Proof.initialSet();
  uint32_t Id = Proof.addPredicate(EqZero);
  EXPECT_TRUE(std::count(Init.begin(), Init.end(), Id));
  const core::PredSet &Next = Proof.step(Init, 0);
  EXPECT_FALSE(std::count(Next.begin(), Next.end(), Id));
}

TEST(ProofSeeding, KarrSeededVerifierStaysSoundOnBuggyAffineLoops) {
  // Seeding from octagon + Karr invariants must never mask a real bug:
  // the seeded runs still find the counterexample.
  core::VerifierConfig Config;
  Config.TimeoutSeconds = 30;
  Config.SeedProof = true;
  {
    smt::TermManager TM;
    auto P = build(workloads::affineSumSource(4, /*WithBug=*/true), TM);
    core::VerificationResult R = core::runSingleOrder(*P, Config, "seq");
    EXPECT_EQ(R.V, core::Verdict::Incorrect);
  }
  {
    smt::TermManager TM;
    auto P = build(workloads::stridePairSource(4, /*WithBug=*/true), TM);
    core::VerificationResult R = core::runSingleOrder(*P, Config, "seq");
    EXPECT_EQ(R.V, core::Verdict::Incorrect);
  }
}

TEST(ProofSeeding, KarrSeededVerifierProvesAffineSumWithoutExtraRounds) {
  core::VerifierConfig Seeded;
  Seeded.TimeoutSeconds = 30;
  Seeded.SeedProof = true;
  core::VerifierConfig Unseeded;
  Unseeded.TimeoutSeconds = 30;
  Unseeded.OctagonTier = false;
  Unseeded.KarrTier = false;

  smt::TermManager TM1;
  auto P1 = build(workloads::affineSumSource(4), TM1);
  core::VerificationResult S = core::runSingleOrder(*P1, Seeded, "seq");
  smt::TermManager TM2;
  auto P2 = build(workloads::affineSumSource(4), TM2);
  core::VerificationResult U = core::runSingleOrder(*P2, Unseeded, "seq");

  EXPECT_EQ(S.V, core::Verdict::Correct);
  EXPECT_EQ(U.V, core::Verdict::Correct);
  // Seeding hands round 0 the affine loop invariant; against the
  // interval-only baseline it must never cost rounds.
  EXPECT_LE(S.Rounds, U.Rounds);
  EXPECT_GT(S.Stats.get("karr_seeded"), 0);
}

TEST(Workloads, LoopHeavySuiteBuildsClean) {
  for (const workloads::WorkloadInstance &W : workloads::loopHeavySuite()) {
    smt::TermManager TM;
    prog::BuildResult B = prog::buildFromSource(W.Source, TM);
    EXPECT_TRUE(B.ok()) << W.Name << ": " << B.Error;
  }
}

TEST(Workloads, AffineSuiteBuildsClean) {
  for (const workloads::WorkloadInstance &W : workloads::affineSuite()) {
    smt::TermManager TM;
    prog::BuildResult B = prog::buildFromSource(W.Source, TM);
    EXPECT_TRUE(B.ok()) << W.Name << ": " << B.Error;
  }
}

TEST(StaticTier, SettlesQueriesWithoutChangingTheVerdict) {
  smt::TermManager TM;
  auto P = build(workloads::bluetoothSource(2, /*WithBug=*/false), TM);

  core::VerifierConfig WithTier;
  WithTier.TimeoutSeconds = 60;
  core::VerificationResult On = core::runSingleOrder(*P, WithTier, "seq");

  core::VerifierConfig WithoutTier;
  WithoutTier.TimeoutSeconds = 60;
  WithoutTier.StaticTier = false;
  core::VerificationResult Off = core::runSingleOrder(*P, WithoutTier, "seq");

  EXPECT_EQ(On.V, Off.V);
  EXPECT_EQ(On.V, core::Verdict::Correct);
  EXPECT_GT(On.Stats.get("commut_static"), 0);
  EXPECT_EQ(Off.Stats.get("commut_static"), 0);
  // Every statically settled query is a semantic check saved.
  EXPECT_LT(On.Stats.get("semantic_commut_checks"),
            Off.Stats.get("semantic_commut_checks"));
}

} // namespace
