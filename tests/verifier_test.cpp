//===- tests/verifier_test.cpp - End-to-end verification tests ------------===//
///
/// Exercises the full refinement loop (Algorithm 2 embedded in trace
/// abstraction) across configurations: baseline (no reduction), sleep-only,
/// persistent-only, combined, proof-sensitive on/off, and all portfolio
/// orders. Verdicts are cross-checked against the explicit-state model
/// checker on finite-state instances and against witness replay.
///
//===----------------------------------------------------------------------===//

#include "core/Portfolio.h"
#include "core/Proof.h"
#include "core/TraceAnalysis.h"
#include "core/Verifier.h"

#include "program/CfgBuilder.h"
#include "program/Interpreter.h"
#include "runtime/ParallelPortfolio.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace seqver;
using namespace seqver::core;
using seqver::automata::Letter;
using seqver::smt::Term;

namespace {

class VerifierTest : public ::testing::Test {
protected:
  smt::TermManager TM;

  std::unique_ptr<prog::ConcurrentProgram> build(const std::string &Source) {
    prog::BuildResult R = prog::buildFromSource(Source, TM);
    EXPECT_TRUE(R.ok()) << R.Error;
    return std::move(R.Program);
  }

  VerifierConfig fastConfig() {
    VerifierConfig C;
    C.TimeoutSeconds = 20;
    return C;
  }
};

//===----------------------------------------------------------------------===//
// Proof automaton
//===----------------------------------------------------------------------===//

TEST_F(VerifierTest, ProofAutomatonBasics) {
  auto P = build("var int x := 0; thread t { x := x + 1; }");
  smt::QueryEngine QE(TM);
  prog::FreshVarSource Fresh(TM);
  ProofAutomaton Proof(TM, QE, Fresh, *P);

  Term X = TM.lookupVar("x");
  smt::LinSum SX = TM.sumOfVar(X);
  uint32_t GeZero = Proof.addPredicate(TM.mkGe(SX, TM.sumOfConst(0)));
  uint32_t GeTen = Proof.addPredicate(TM.mkGe(SX, TM.sumOfConst(10)));

  // Initially x == 0: x >= 0 holds, x >= 10 does not, false does not.
  PredSet Init = Proof.initialSet();
  EXPECT_TRUE(std::count(Init.begin(), Init.end(), GeZero));
  EXPECT_FALSE(std::count(Init.begin(), Init.end(), GeTen));
  EXPECT_FALSE(Proof.isFalse(Init));

  // {x >= 0} x := x+1 {x >= 0} holds.
  const PredSet &Next = Proof.step({GeZero}, 0);
  EXPECT_TRUE(std::count(Next.begin(), Next.end(), GeZero));
  EXPECT_FALSE(Proof.isFalse(Next));

  // Dedup: adding the same predicate returns the same id.
  EXPECT_EQ(Proof.addPredicate(TM.mkGe(SX, TM.sumOfConst(0))), GeZero);
}

TEST_F(VerifierTest, ProofStepFromFalseStaysFalse) {
  auto P = build("var int x := 0; thread t { x := x + 1; }");
  smt::QueryEngine QE(TM);
  prog::FreshVarSource Fresh(TM);
  ProofAutomaton Proof(TM, QE, Fresh, *P);
  const PredSet &Next = Proof.step({ProofAutomaton::FalseId}, 0);
  EXPECT_TRUE(Proof.isFalse(Next));
}

TEST_F(VerifierTest, ProofDetectsBlockedActions) {
  auto P = build("var int x := 0; thread t { assume x >= 5; }");
  smt::QueryEngine QE(TM);
  prog::FreshVarSource Fresh(TM);
  ProofAutomaton Proof(TM, QE, Fresh, *P);
  Term X = TM.lookupVar("x");
  uint32_t LeZero =
      Proof.addPredicate(TM.mkLe(TM.sumOfVar(X), TM.sumOfConst(0)));
  // {x <= 0} assume x >= 5 {false}: the action is blocked.
  const PredSet &Next = Proof.step({LeZero}, 0);
  EXPECT_TRUE(Proof.isFalse(Next));
}

//===----------------------------------------------------------------------===//
// Trace analysis
//===----------------------------------------------------------------------===//

TEST_F(VerifierTest, TraceAnalysisFeasible) {
  auto P = build("var int x := 0;"
                 "thread a { x := 1; }"
                 "thread checker { assert x == 0; }");
  smt::QueryEngine QE(TM);
  prog::FreshVarSource Fresh(TM);
  // Letters: 0 = x := 1, 1 = assert_ok, 2 = assert_fail.
  TraceAnalysis Feasible = analyzeTrace(TM, QE, Fresh, *P, {0, 2});
  EXPECT_EQ(Feasible.Status, TraceStatus::Feasible);
  TraceAnalysis Spurious = analyzeTrace(TM, QE, Fresh, *P, {2});
  ASSERT_EQ(Spurious.Status, TraceStatus::Infeasible);
  ASSERT_EQ(Spurious.WpChain.size(), 2u);
  EXPECT_EQ(Spurious.WpChain.back(), TM.mkFalse());
  // A_0 = wp(assert_fail, false) = (x != 0 -> false) = (x == 0).
  Term X = TM.lookupVar("x");
  EXPECT_EQ(Spurious.WpChain[0],
            TM.mkEq(TM.sumOfVar(X), TM.sumOfConst(0)));
}

//===----------------------------------------------------------------------===//
// End-to-end verdicts
//===----------------------------------------------------------------------===//

TEST_F(VerifierTest, TrivialCorrectProgram) {
  auto P = build("var int x := 0; thread t { assert x == 0; }");
  for (const char *Order : {"baseline", "seq", "lockstep", "rand(1)"}) {
    VerificationResult R = runSingleOrder(*P, fastConfig(), Order);
    EXPECT_EQ(R.V, Verdict::Correct) << Order;
  }
}

TEST_F(VerifierTest, TrivialIncorrectProgram) {
  auto P = build("var int x := 1; thread t { assert x == 0; }");
  for (const char *Order : {"baseline", "seq", "lockstep", "rand(1)"}) {
    VerificationResult R = runSingleOrder(*P, fastConfig(), Order);
    EXPECT_EQ(R.V, Verdict::Incorrect) << Order;
  }
}

TEST_F(VerifierTest, WitnessReplaysToError) {
  auto P = build("var int x := 0;"
                 "thread a { x := x + 1; x := x + 1; }"
                 "thread checker { assume x == 2; assert false; }");
  VerificationResult R = runSingleOrder(*P, fastConfig(), "seq");
  ASSERT_EQ(R.V, Verdict::Incorrect);
  ASSERT_FALSE(R.Witness.empty());
  // The witness is a feasible run of the program reaching the error.
  EXPECT_TRUE(prog::replayTrace(*P, R.Witness).has_value());
  prog::ProductState Locs = P->initialProductState();
  for (Letter L : R.Witness) {
    auto Succs = P->successors(Locs);
    bool Stepped = false;
    for (auto &[SL, Next] : Succs)
      if (SL == L) {
        Locs = Next;
        Stepped = true;
        break;
      }
    ASSERT_TRUE(Stepped);
  }
  EXPECT_TRUE(P->isErrorState(Locs));
}

TEST_F(VerifierTest, RaceDetectedOnlyWhenPresent) {
  // Non-atomic check-then-act is racy; atomic is safe.
  auto Racy = build("var bool locked := false; var int c := 0;"
                    "thread a { assume !locked; locked := true;"
                    "  c := c + 1; assert c == 1; c := c - 1;"
                    "  locked := false; }"
                    "thread b { assume !locked; locked := true;"
                    "  c := c + 1; c := c - 1; locked := false; }");
  EXPECT_EQ(runSingleOrder(*Racy, fastConfig(), "seq").V,
            Verdict::Incorrect);

  smt::TermManager TM2;
  prog::BuildResult Safe = prog::buildFromSource(
      "var bool locked := false; var int c := 0;"
      "thread a { atomic { assume !locked; locked := true; }"
      "  c := c + 1; assert c == 1; c := c - 1; locked := false; }"
      "thread b { atomic { assume !locked; locked := true; }"
      "  c := c + 1; c := c - 1; locked := false; }",
      TM2);
  ASSERT_TRUE(Safe.ok());
  EXPECT_EQ(runSingleOrder(*Safe.Program, fastConfig(), "seq").V,
            Verdict::Correct);
}

TEST_F(VerifierTest, AllConfigurationsAgreeOnVerdicts) {
  // Variants of Table 2: portfolio pieces must agree on ground truth.
  struct Case {
    const char *Source;
    bool Correct;
  };
  std::vector<Case> Cases = {
      {"var int x := 0;"
       "thread a { x := x + 1; }"
       "thread b { x := x + 1; }"
       "thread checker { assert x <= 2; }",
       true},
      {"var int x := 0;"
       "thread a { x := x + 1; }"
       "thread b { x := x + 1; }"
       "thread checker { assert x <= 1; }",
       false},
  };
  for (const Case &C : Cases) {
    smt::TermManager LocalTM;
    prog::BuildResult B = prog::buildFromSource(C.Source, LocalTM);
    ASSERT_TRUE(B.ok()) << B.Error;

    std::vector<VerifierConfig> Configs;
    VerifierConfig Base = fastConfig();
    Configs.push_back(VerifierConfig::baseline());
    Configs.back().TimeoutSeconds = 20;
    // sleep-only / persistent-only / combined / non-proof-sensitive.
    for (int Mask = 0; Mask < 4; ++Mask) {
      VerifierConfig Cfg = Base;
      Cfg.UseSleepSets = Mask & 1;
      Cfg.UsePersistentSets = Mask & 2;
      Cfg.ProofSensitive = (Mask & 1) != 0;
      Configs.push_back(Cfg);
    }
    auto Orders = red::makePortfolioOrders(*B.Program);
    for (VerifierConfig Cfg : Configs) {
      if (Cfg.UseSleepSets || Cfg.UsePersistentSets)
        Cfg.Order = Orders[0].get();
      Verifier V(*B.Program, Cfg);
      VerificationResult R = V.run();
      EXPECT_EQ(R.V, C.Correct ? Verdict::Correct : Verdict::Incorrect)
          << "sleep=" << Cfg.UseSleepSets
          << " persistent=" << Cfg.UsePersistentSets;
    }
  }
}

TEST_F(VerifierTest, VerdictMatchesExplicitStateOracle) {
  // Finite-state programs: the model checker is ground truth.
  std::vector<std::string> Sources = {
      "var int x := 0;"
      "thread a { x := x + 1; }"
      "thread b { x := x - 1; }"
      "thread checker { assert x >= 0 - 1 && x <= 1; }",
      "var int x := 0; var bool f := false;"
      "thread a { x := 1; f := true; }"
      "thread checker { assume f; assert x == 1; }",
      "var int x := 0; var bool f := false;"
      "thread a { f := true; x := 1; }"
      "thread checker { assume f; assert x == 1; }",
  };
  for (const std::string &Source : Sources) {
    smt::TermManager LocalTM;
    prog::BuildResult B = prog::buildFromSource(Source, LocalTM);
    ASSERT_TRUE(B.ok()) << B.Error;
    prog::ReachResult Oracle = prog::explicitReach(*B.Program, 100000);
    ASSERT_FALSE(Oracle.Overflow);
    VerifierConfig Cfg;
    Cfg.TimeoutSeconds = 20;
    VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
    EXPECT_EQ(R.V,
              Oracle.ErrorReachable ? Verdict::Incorrect : Verdict::Correct)
        << Source;
  }
}

TEST_F(VerifierTest, PortfolioAggregatesBestOrder) {
  // The sequential portfolio is the one-job race.
  runtime::ParallelConfig PC;
  PC.Jobs = 1;
  runtime::ParallelPortfolioResult R = runtime::runPortfolioParallel(
      workloads::bluetoothSource(2), fastConfig(), PC);
  EXPECT_TRUE(R.decisive());
  EXPECT_EQ(R.Best.V, Verdict::Correct);
  ASSERT_EQ(R.Entries.size(), 5u); // seq, lockstep, rand(1..3)
  // The winner is the first decisive order in priority order.
  auto First = std::find_if(R.Entries.begin(), R.Entries.end(),
                            [](const PortfolioEntry &E) {
                              return isDecisive(E.Result.V);
                            });
  ASSERT_NE(First, R.Entries.end());
  EXPECT_EQ(R.BestOrder, First->OrderName);
  EXPECT_EQ(R.Best.Seconds, First->Result.Seconds);
}

TEST_F(VerifierTest, BluetoothConstantRoundsWithReduction) {
  // Sec. 2: the reduction admits a proof with a constant number of rounds.
  for (int Users = 1; Users <= 3; ++Users) {
    smt::TermManager LocalTM;
    prog::BuildResult B = prog::buildFromSource(
        workloads::bluetoothSource(Users), LocalTM);
    ASSERT_TRUE(B.ok()) << B.Error;
    VerifierConfig Cfg;
    Cfg.TimeoutSeconds = 30;
    VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
    ASSERT_EQ(R.V, Verdict::Correct);
    EXPECT_EQ(R.Rounds, 3) << "users=" << Users;
  }
}

TEST_F(VerifierTest, VisitedAllRoundsCountsEveryRound) {
  // visited_total adds only rounds that return a valid proof;
  // visited_all_rounds adds the counterexample rounds before it too.
  smt::TermManager LocalTM;
  prog::BuildResult B =
      prog::buildFromSource(workloads::bluetoothSource(3), LocalTM);
  ASSERT_TRUE(B.ok()) << B.Error;
  VerifierConfig Cfg;
  Cfg.TimeoutSeconds = 30;
  VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
  ASSERT_EQ(R.V, Verdict::Correct);
  ASSERT_GT(R.Rounds, 1);
  EXPECT_GT(R.Stats.get("visited_total"), 0);
  EXPECT_GT(R.Stats.get("visited_all_rounds"),
            R.Stats.get("visited_total"));
}

TEST_F(VerifierTest, BluetoothBugFound) {
  for (int Users = 1; Users <= 2; ++Users) {
    smt::TermManager LocalTM;
    prog::BuildResult B = prog::buildFromSource(
        workloads::bluetoothSource(Users, /*WithBug=*/true), LocalTM);
    ASSERT_TRUE(B.ok()) << B.Error;
    VerifierConfig Cfg;
    Cfg.TimeoutSeconds = 30;
    VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
    ASSERT_EQ(R.V, Verdict::Incorrect);
    EXPECT_TRUE(prog::replayTrace(*B.Program, R.Witness).has_value());
  }
}

TEST_F(VerifierTest, UselessCacheDoesNotChangeVerdicts) {
  auto Src = workloads::bluetoothSource(2);
  for (bool UseCache : {false, true}) {
    smt::TermManager LocalTM;
    prog::BuildResult B = prog::buildFromSource(Src, LocalTM);
    ASSERT_TRUE(B.ok());
    VerifierConfig Cfg;
    Cfg.TimeoutSeconds = 30;
    Cfg.UselessStateCache = UseCache;
    VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
    EXPECT_EQ(R.V, Verdict::Correct) << "cache=" << UseCache;
    EXPECT_EQ(R.Rounds, 3);
  }
}

TEST_F(VerifierTest, ProofSensitivityOnOffBothSound) {
  auto Src = workloads::bluetoothSource(2);
  for (bool Sensitive : {false, true}) {
    smt::TermManager LocalTM;
    prog::BuildResult B = prog::buildFromSource(Src, LocalTM);
    ASSERT_TRUE(B.ok());
    VerifierConfig Cfg;
    Cfg.TimeoutSeconds = 30;
    Cfg.ProofSensitive = Sensitive;
    VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
    EXPECT_EQ(R.V, Verdict::Correct) << "sensitive=" << Sensitive;
  }
}

TEST_F(VerifierTest, SyntacticCommutativityModeIsSound) {
  auto Src = workloads::bluetoothSource(2);
  smt::TermManager LocalTM;
  prog::BuildResult B = prog::buildFromSource(Src, LocalTM);
  ASSERT_TRUE(B.ok());
  VerifierConfig Cfg;
  Cfg.TimeoutSeconds = 30;
  Cfg.CommutMode = red::CommutativityChecker::Mode::Syntactic;
  VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
  EXPECT_EQ(R.V, Verdict::Correct);
}

TEST_F(VerifierTest, TimeoutReported) {
  auto P = build(workloads::bluetoothSource(3));
  VerifierConfig Cfg;
  Cfg.TimeoutSeconds = 0.000001; // expire immediately
  VerificationResult R = runSingleOrder(*P, Cfg, "seq");
  EXPECT_EQ(R.V, Verdict::Timeout);
}

//===----------------------------------------------------------------------===//
// Workload suites: ground truth for every instance (seq order)
//===----------------------------------------------------------------------===//

class SuiteGroundTruth
    : public ::testing::TestWithParam<workloads::WorkloadInstance> {};

TEST_P(SuiteGroundTruth, SeqOrderMatchesExpectedVerdict) {
  const auto &W = GetParam();
  smt::TermManager TM;
  prog::BuildResult B = prog::buildFromSource(W.Source, TM);
  ASSERT_TRUE(B.ok()) << W.Name << ": " << B.Error;
  VerifierConfig Cfg;
  Cfg.TimeoutSeconds = 60;
  VerificationResult R = runSingleOrder(*B.Program, Cfg, "seq");
  EXPECT_EQ(R.V, W.ExpectedCorrect ? Verdict::Correct : Verdict::Incorrect)
      << W.Name;
  if (R.V == Verdict::Incorrect) {
    EXPECT_TRUE(prog::replayTrace(*B.Program, R.Witness).has_value())
        << W.Name;
  }
}

std::vector<workloads::WorkloadInstance> allSuiteInstances() {
  auto Out = workloads::svcompLikeSuite();
  auto Weaver = workloads::weaverLikeSuite();
  Out.insert(Out.end(), Weaver.begin(), Weaver.end());
  return Out;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SuiteGroundTruth, ::testing::ValuesIn(allSuiteInstances()),
    [](const ::testing::TestParamInfo<workloads::WorkloadInstance> &Info) {
      return Info.param.Name;
    });

} // namespace
