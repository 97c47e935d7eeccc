//===- tests/program_test.cpp - Program model and semantics tests ---------===//

#include "program/CfgBuilder.h"
#include "program/Interpreter.h"
#include "program/Program.h"
#include "program/Semantics.h"

#include "automata/DfaOps.h"
#include "smt/Solver.h"

#include <gtest/gtest.h>

using namespace seqver;
using namespace seqver::prog;
using seqver::automata::Dfa;
using seqver::automata::Letter;
using seqver::smt::Sort;
using seqver::smt::Term;

namespace {

class ProgramTest : public ::testing::Test {
protected:
  smt::TermManager TM;

  std::unique_ptr<ConcurrentProgram> build(const std::string &Source) {
    BuildResult R = buildFromSource(Source, TM);
    EXPECT_TRUE(R.ok()) << R.Error;
    return std::move(R.Program);
  }
};

TEST_F(ProgramTest, StraightLineThread) {
  auto P = build("var int x; thread t { x := 1; x := x + 1; }");
  ASSERT_EQ(P->numThreads(), 1);
  EXPECT_EQ(P->numLetters(), 2u);
  // Three locations: entry, middle, exit.
  EXPECT_EQ(P->thread(0).numLocations(), 3u);
  EXPECT_FALSE(P->thread(0).containsAssert());
}

TEST_F(ProgramTest, AssertCreatesErrorLocation) {
  auto P = build("var int x; thread t { assert x == 0; }");
  EXPECT_TRUE(P->thread(0).containsAssert());
  // Letters: assert_ok, assert_fail.
  EXPECT_EQ(P->numLetters(), 2u);
}

TEST_F(ProgramTest, WhileLoopShape) {
  auto P = build("var int x; thread t { while (x < 3) { x := x + 1; } }");
  // Locations: head (=body exit), body-entry, exit.
  EXPECT_EQ(P->thread(0).numLocations(), 3u);
  // The head has two outgoing edges (enter/exit).
  EXPECT_EQ(P->thread(0).Edges[P->thread(0).InitialLoc].size(), 2u);
}

TEST_F(ProgramTest, AtomicWithBranchEnumeratesPaths) {
  auto P = build(R"(
    var int pendingIo := 1;
    var bool stoppingEvent;
    thread stopper {
      atomic {
        pendingIo := pendingIo - 1;
        if (pendingIo == 0) { stoppingEvent := true; }
      }
    }
  )");
  // Two paths through the atomic block -> two letters.
  EXPECT_EQ(P->numLetters(), 2u);
  const Action &A0 = P->action(0);
  const Action &A1 = P->action(1);
  EXPECT_EQ(A0.ThreadId, 0);
  EXPECT_EQ(A1.ThreadId, 0);
  // Both paths write pendingIo; exactly one writes stoppingEvent.
  Term StoppingEvent = TM.lookupVar("stoppingEvent");
  EXPECT_NE(A0.writesVar(StoppingEvent), A1.writesVar(StoppingEvent));
}

TEST_F(ProgramTest, FootprintsAndConflicts) {
  auto P = build(R"(
    var int x; var int y;
    thread a { x := y + 1; }
    thread b { y := 2; }
    thread c { x := 5; }
  )");
  const Action &AX = P->action(0); // x := y + 1
  const Action &BY = P->action(1); // y := 2
  const Action &CX = P->action(2); // x := 5
  Term X = TM.lookupVar("x");
  Term Y = TM.lookupVar("y");
  EXPECT_TRUE(AX.writesVar(X));
  EXPECT_TRUE(AX.readsVar(Y));
  EXPECT_FALSE(AX.readsVar(X));
  // a reads y, b writes y: conflict.
  EXPECT_TRUE(AX.footprintConflictsWith(BY));
  EXPECT_TRUE(BY.footprintConflictsWith(AX));
  // a and c write x: conflict. b and c: disjoint.
  EXPECT_TRUE(AX.footprintConflictsWith(CX));
  EXPECT_FALSE(BY.footprintConflictsWith(CX));
}

TEST_F(ProgramTest, InitialConstraintAndValues) {
  auto P = build("var int x := 4; var bool f := true; thread t { skip; }");
  Term X = TM.lookupVar("x");
  EXPECT_EQ(P->initialValues().intValue(X), 4);
  EXPECT_TRUE(P->initialValues().boolValue(TM.lookupVar("f")));
  // x == 4 && f holds in exactly the initial store.
  smt::Solver S(TM);
  S.assertFormula(P->initialConstraint());
  ASSERT_EQ(S.check(), smt::SolverResult::Sat);
  EXPECT_EQ(S.model().intValue(X), 4);
  EXPECT_TRUE(S.model().boolValue(TM.lookupVar("f")));
}

TEST_F(ProgramTest, ProductSuccessorsInterleave) {
  auto P = build("var int x; thread a { x := 1; } thread b { x := 2; }");
  ProductState S0 = P->initialProductState();
  auto Succs = P->successors(S0);
  ASSERT_EQ(Succs.size(), 2u);
  EXPECT_EQ(P->action(Succs[0].first).ThreadId, 0);
  EXPECT_EQ(P->action(Succs[1].first).ThreadId, 1);
}

TEST_F(ProgramTest, ExplicitProductAllExit) {
  auto P = build("var int x; thread a { x := 1; } thread b { x := 2; }");
  Dfa D = P->explicitProduct(AcceptMode::AllExit);
  // 2x2 product grid.
  EXPECT_EQ(D.numStates(), 4u);
  EXPECT_TRUE(D.accepts({0, 1}));
  EXPECT_TRUE(D.accepts({1, 0}));
  EXPECT_FALSE(D.accepts({0}));
  EXPECT_FALSE(D.accepts({}));
}

TEST_F(ProgramTest, ErrorAutomatonAcceptsViolationPrefixes) {
  // assert x == 0 fails after thread a sets x to 1 -- but only the
  // interleaving where a runs before the assert.
  auto P = build(R"(
    var int x;
    thread a { x := 1; }
    thread checker { assert x == 0; }
  )");
  Dfa D = P->explicitProduct(AcceptMode::Error);
  // letters: 0 = a.x:=1, 1 = assert_ok, 2 = assert_fail.
  EXPECT_TRUE(D.accepts({2}));       // syntactically reaches error
  EXPECT_TRUE(D.accepts({0, 2}));
  EXPECT_FALSE(D.accepts({1}));
  EXPECT_FALSE(D.accepts({2, 0})); // error states absorb
}

TEST_F(ProgramTest, SizeIsSumOfThreadSizes) {
  auto P = build("var int x; thread a { x := 1; x := 2; } thread b { skip; }");
  EXPECT_EQ(P->size(), P->thread(0).numLocations() +
                           P->thread(1).numLocations());
}

//===----------------------------------------------------------------------===//
// Semantics: wp and symbolic composition
//===----------------------------------------------------------------------===//

TEST_F(ProgramTest, WpOfAssignment) {
  auto P = build("var int x; thread t { x := x + 1; }");
  FreshVarSource Fresh(TM);
  Term X = TM.lookupVar("x");
  // wp(x := x+1, x <= 5) == x <= 4.
  smt::LinSum SX = TM.sumOfVar(X);
  Term Post = TM.mkLe(SX, TM.sumOfConst(5));
  Term Pre = wpAction(TM, P->action(0), Post, Fresh);
  EXPECT_EQ(Pre, TM.mkLe(SX, TM.sumOfConst(4)));
}

TEST_F(ProgramTest, WpOfAssume) {
  auto P = build("var int x; thread t { assume x >= 2; }");
  FreshVarSource Fresh(TM);
  Term X = TM.lookupVar("x");
  Term Post = TM.mkFalse();
  Term Pre = wpAction(TM, P->action(0), Post, Fresh);
  // wp(assume x>=2, false) == x < 2.
  EXPECT_EQ(Pre, TM.mkLt(TM.sumOfVar(X), TM.sumOfConst(2)));
}

TEST_F(ProgramTest, WpOfAtomicSequence) {
  auto P = build(R"(
    var int x; var bool f;
    thread t { atomic { x := x + 1; assume x == 3; f := true; } }
  )");
  FreshVarSource Fresh(TM);
  Term F = TM.lookupVar("f");
  Term X = TM.lookupVar("x");
  Term Pre = wpAction(TM, P->action(0), F, Fresh);
  // wp = (x+1 == 3) -> true == true ... with post f:
  // wp(f := true, f) = true; wp(assume x==3, true) = true;
  // wp(x := x+1, true) = true.
  EXPECT_EQ(Pre, TM.mkTrue());
  // With post !f the wp is x+1 != 3, i.e. not (x == 2).
  Term Pre2 = wpAction(TM, P->action(0), TM.mkNot(F), Fresh);
  EXPECT_EQ(Pre2,
            TM.mkNot(TM.mkEq(TM.sumOfVar(X), TM.sumOfConst(2))));
}

TEST_F(ProgramTest, WpOfHavocUsesFreshVariable) {
  auto P = build("var int x; thread t { havoc x; }");
  FreshVarSource Fresh(TM);
  Term X = TM.lookupVar("x");
  Term Post = TM.mkLe(TM.sumOfVar(X), TM.sumOfConst(0));
  Term Pre = wpAction(TM, P->action(0), Post, Fresh);
  // x must not occur in the wp anymore.
  std::vector<Term> Vars;
  TM.collectVars(Pre, Vars);
  for (Term V : Vars)
    EXPECT_NE(V, X);
  EXPECT_NE(Pre, TM.mkTrue());
}

TEST_F(ProgramTest, SymbolicCompositionDetectsCommutation) {
  auto P = build(R"(
    var int x; var int y;
    thread a { x := x + 1; }
    thread b { y := y + 1; }
    thread c { x := 2 * x; }
  )");
  std::map<std::pair<Letter, size_t>, Term> Havocs;
  // a;b vs b;a -- disjoint variables, compositions identical.
  {
    SymbolicState AB = symbolicIdentity(TM);
    applySymbolic(TM, P->action(0), AB, Havocs);
    applySymbolic(TM, P->action(1), AB, Havocs);
    SymbolicState BA = symbolicIdentity(TM);
    applySymbolic(TM, P->action(1), BA, Havocs);
    applySymbolic(TM, P->action(0), BA, Havocs);
    EXPECT_EQ(AB.Guard, BA.Guard);
    Term X = TM.lookupVar("x");
    Term Y = TM.lookupVar("y");
    EXPECT_EQ(AB.Values.IntMap.at(X), BA.Values.IntMap.at(X));
    EXPECT_EQ(AB.Values.IntMap.at(Y), BA.Values.IntMap.at(Y));
  }
  // a;c: x -> 2(x+1); c;a: x -> 2x+1 -- differ.
  {
    SymbolicState AC = symbolicIdentity(TM);
    applySymbolic(TM, P->action(0), AC, Havocs);
    applySymbolic(TM, P->action(2), AC, Havocs);
    SymbolicState CA = symbolicIdentity(TM);
    applySymbolic(TM, P->action(2), CA, Havocs);
    applySymbolic(TM, P->action(0), CA, Havocs);
    Term X = TM.lookupVar("x");
    EXPECT_NE(AC.Values.IntMap.at(X) == CA.Values.IntMap.at(X), true);
  }
}

TEST_F(ProgramTest, CommutationObligationsFoldForCommutingPairs) {
  auto P = build(R"(
    var int x; var int y;
    thread a { x := x + 1; }
    thread b { atomic { x := x + 2; y := y + 1; } }
    thread c { x := 2 * x; }
  )");
  // a;b vs b;a: both orders add 3 to x and 1 to y, so every obligation
  // folds to false, one value obligation per written variable.
  CommutationObligations AB =
      commutationObligations(TM, P->action(0), P->action(1));
  EXPECT_EQ(AB.GuardsDiffer, TM.mkFalse());
  ASSERT_EQ(AB.ValuesDiffer.size(), 2u);
  for (Term VD : AB.ValuesDiffer)
    EXPECT_EQ(VD, TM.mkFalse());
  // a;c: x -> 2(x+1); c;a: x -> 2x+1 -- the value obligation stays open.
  CommutationObligations AC =
      commutationObligations(TM, P->action(0), P->action(2));
  ASSERT_EQ(AC.ValuesDiffer.size(), 1u);
  EXPECT_NE(AC.ValuesDiffer[0], TM.mkFalse());
  // The argument order does not matter: the lower letter is composed first.
  CommutationObligations CA =
      commutationObligations(TM, P->action(2), P->action(0));
  EXPECT_EQ(CA.CommonGuard, AC.CommonGuard);
  EXPECT_EQ(CA.GuardsDiffer, AC.GuardsDiffer);
  EXPECT_EQ(CA.ValuesDiffer, AC.ValuesDiffer);
}

TEST_F(ProgramTest, SymbolicGuardEvaluatedInContext) {
  auto P = build(R"(
    var int x;
    thread a { x := x + 1; }
    thread b { assume x >= 1; }
  )");
  std::map<std::pair<Letter, size_t>, Term> Havocs;
  SymbolicState AB = symbolicIdentity(TM);
  applySymbolic(TM, P->action(0), AB, Havocs);
  applySymbolic(TM, P->action(1), AB, Havocs);
  // Guard after a;b is x+1 >= 1, i.e. x >= 0.
  Term X = TM.lookupVar("x");
  EXPECT_EQ(AB.Guard, TM.mkGe(TM.sumOfVar(X), TM.sumOfConst(0)));
}

//===----------------------------------------------------------------------===//
// Interpreter and explicit-state reachability
//===----------------------------------------------------------------------===//

TEST_F(ProgramTest, ExecuteActionAppliesPrims) {
  auto P = build("var int x := 1; thread t { atomic { x := x + 1; assume x == 2; } }");
  smt::Assignment Store = P->initialValues();
  EXPECT_TRUE(executeAction(*P, P->action(0), Store));
  EXPECT_EQ(Store.intValue(TM.lookupVar("x")), 2);
  // Running it again fails the assume (x becomes 3).
  EXPECT_FALSE(executeAction(*P, P->action(0), Store));
}

TEST_F(ProgramTest, ReplayTraceChecksRunsAndGuards) {
  auto P = build(R"(
    var int x;
    thread a { x := 1; }
    thread checker { assert x == 0; }
  )");
  // Letters: 0 = x:=1, 1 = assert_ok (assume x==0), 2 = assert_fail.
  EXPECT_TRUE(replayTrace(*P, {0, 2}).has_value());  // real violation
  EXPECT_FALSE(replayTrace(*P, {0, 1}).has_value()); // assume x==0 fails
  EXPECT_TRUE(replayTrace(*P, {1, 0}).has_value());
  EXPECT_FALSE(replayTrace(*P, {0, 0}).has_value()); // not a run
}

TEST_F(ProgramTest, ExplicitReachFindsRealBug) {
  auto P = build(R"(
    var int x;
    thread a { x := 1; }
    thread checker { assert x == 0; }
  )");
  ReachResult R = explicitReach(*P, 10000);
  ASSERT_TRUE(R.ErrorReachable);
  // The witness must replay to a feasible execution.
  EXPECT_TRUE(replayTrace(*P, R.Witness).has_value());
}

TEST_F(ProgramTest, ExplicitReachProvesSafety) {
  auto P = build(R"(
    var int x := 0;
    thread a { x := x + 1; x := x - 1; }
    thread checker { assume x == 5; assert false; }
  )");
  ReachResult R = explicitReach(*P, 10000);
  EXPECT_FALSE(R.ErrorReachable);
  EXPECT_FALSE(R.Overflow);
}

TEST_F(ProgramTest, ExplicitReachHandlesHavoc) {
  auto P = build(R"(
    var int x;
    thread a { havoc x; assert x != 1; }
  )");
  ReachResult R = explicitReach(*P, 10000, {0, 1});
  EXPECT_TRUE(R.ErrorReachable);
}

} // namespace
