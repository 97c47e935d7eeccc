//===- tests/smt_simplex_test.cpp - Simplex and LIA layer tests -----------===//

#include "smt/LiaSolver.h"
#include "smt/Simplex.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <pthread.h>

using namespace seqver;
using namespace seqver::smt;

//===----------------------------------------------------------------------===//
// Simplex (rational relaxation)
//===----------------------------------------------------------------------===//

TEST(SimplexTest, UnconstrainedIsSat) {
  Simplex S;
  S.addVar();
  EXPECT_EQ(S.check(), Simplex::Result::Sat);
}

TEST(SimplexTest, DirectBoundConflict) {
  Simplex S;
  int X = S.addVar();
  S.setLower(X, Rational(3));
  S.setUpper(X, Rational(2));
  EXPECT_EQ(S.check(), Simplex::Result::Unsat);
}

TEST(SimplexTest, SlackRowPropagation) {
  // x + y <= 2, x >= 2, y >= 1 is unsat.
  Simplex S;
  int X = S.addVar();
  int Y = S.addVar();
  int Slack = S.addSlack({{X, Rational(1)}, {Y, Rational(1)}});
  S.setUpper(Slack, Rational(2));
  S.setLower(X, Rational(2));
  S.setLower(Y, Rational(1));
  EXPECT_EQ(S.check(), Simplex::Result::Unsat);
}

TEST(SimplexTest, SatisfiableSystemHasConsistentModel) {
  // x + y <= 4, x - y >= 1, x >= 0, y >= 0.
  Simplex S;
  int X = S.addVar();
  int Y = S.addVar();
  int Sum = S.addSlack({{X, Rational(1)}, {Y, Rational(1)}});
  int Diff = S.addSlack({{X, Rational(1)}, {Y, Rational(-1)}});
  S.setUpper(Sum, Rational(4));
  S.setLower(Diff, Rational(1));
  S.setLower(X, Rational(0));
  S.setLower(Y, Rational(0));
  ASSERT_EQ(S.check(), Simplex::Result::Sat);
  Rational XV = S.value(X);
  Rational YV = S.value(Y);
  EXPECT_TRUE(XV + YV <= Rational(4));
  EXPECT_TRUE(XV - YV >= Rational(1));
  EXPECT_TRUE(XV >= Rational(0));
  EXPECT_TRUE(YV >= Rational(0));
  // Slack variables must equal their definitions.
  EXPECT_EQ(S.value(Sum), XV + YV);
  EXPECT_EQ(S.value(Diff), XV - YV);
}

TEST(SimplexTest, EqualityViaTwoBounds) {
  // x + y == 3 and x - y == 1 -> x = 2, y = 1.
  Simplex S;
  int X = S.addVar();
  int Y = S.addVar();
  int Sum = S.addSlack({{X, Rational(1)}, {Y, Rational(1)}});
  int Diff = S.addSlack({{X, Rational(1)}, {Y, Rational(-1)}});
  S.setLower(Sum, Rational(3));
  S.setUpper(Sum, Rational(3));
  S.setLower(Diff, Rational(1));
  S.setUpper(Diff, Rational(1));
  ASSERT_EQ(S.check(), Simplex::Result::Sat);
  EXPECT_EQ(S.value(X), Rational(2));
  EXPECT_EQ(S.value(Y), Rational(1));
}

/// Property sweep: simplex verdicts match brute-force rational search on
/// random bounded systems (bounded domains make brute force over a lattice
/// plus interior sampling unnecessary: we compare against LIA enumeration on
/// integral instances instead).
class SimplexRandomSystem : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomSystem, ModelSatisfiesAllRows) {
  Rng R(static_cast<uint64_t>(GetParam()) * 31 + 7);
  Simplex S;
  const int NumVars = 3;
  int Vars[NumVars];
  for (int &Var : Vars)
    Var = S.addVar();
  struct RowSpec {
    int64_t Coeffs[NumVars];
    int64_t Upper;
  };
  std::vector<RowSpec> Specs;
  std::vector<int> Slacks;
  size_t NumRows = 2 + R.below(4);
  for (size_t I = 0; I < NumRows; ++I) {
    RowSpec Spec;
    std::vector<std::pair<int, Rational>> Def;
    for (int V = 0; V < NumVars; ++V) {
      Spec.Coeffs[V] = R.range(-3, 3);
      if (Spec.Coeffs[V] != 0)
        Def.emplace_back(Vars[V], Rational(Spec.Coeffs[V]));
    }
    if (Def.empty())
      Def.emplace_back(Vars[0], Rational(Spec.Coeffs[0] = 1));
    Spec.Upper = R.range(-4, 8);
    int Slack = S.addSlack(Def);
    S.setUpper(Slack, Rational(Spec.Upper));
    Specs.push_back(Spec);
    Slacks.push_back(Slack);
  }
  for (int V = 0; V < NumVars; ++V) {
    S.setLower(Vars[V], Rational(-5));
    S.setUpper(Vars[V], Rational(5));
  }
  if (S.check() == Simplex::Result::Sat) {
    for (size_t I = 0; I < Specs.size(); ++I) {
      Rational Value;
      for (int V = 0; V < NumVars; ++V)
        Value += Rational(Specs[I].Coeffs[V]) * S.value(Vars[V]);
      EXPECT_TRUE(Value <= Rational(Specs[I].Upper))
          << "row " << I << " violated";
      EXPECT_EQ(S.value(Slacks[I]), Value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomSystem, ::testing::Range(0, 100));

//===----------------------------------------------------------------------===//
// LIA layer
//===----------------------------------------------------------------------===//

namespace {

class LiaTest : public ::testing::Test {
protected:
  TermManager TM;
  Term X = TM.mkVar("x", Sort::Int);
  Term Y = TM.mkVar("y", Sort::Int);

  LiaAtom le(const LinSum &Sum) { return {Sum, false}; }
  LiaAtom eq(const LinSum &Sum) { return {Sum, true}; }
};

TEST_F(LiaTest, EmptyIsSat) {
  LiaSolver Lia;
  EXPECT_EQ(Lia.check({}, {}, nullptr, nullptr), LiaResult::Sat);
}

TEST_F(LiaTest, FractionalOnlySolutionIsUnsat) {
  // x + y == 1, x - y == 0 (only rational solution is 1/2, 1/2).
  LinSum SumEq = TermManager::sumAdd(TM.sumOfVar(X), TM.sumOfVar(Y));
  SumEq.Constant -= 1;
  LinSum DiffEq = TermManager::sumSub(TM.sumOfVar(X), TM.sumOfVar(Y));
  LiaSolver Lia;
  EXPECT_EQ(Lia.check({eq(SumEq), eq(DiffEq)}, {}, nullptr, nullptr),
            LiaResult::Unsat);
}

TEST_F(LiaTest, ModelIsIntegral) {
  // 2x >= 1 has integral minimum x = 1 (after branch and bound).
  LinSum Sum = TermManager::sumScale(TM.sumOfVar(X), -2);
  Sum.Constant += 1; // 1 - 2x <= 0.
  LiaSolver Lia;
  Assignment Model;
  ASSERT_EQ(Lia.check({le(Sum)}, {}, &Model, nullptr), LiaResult::Sat);
  EXPECT_GE(Model.intValue(X), 1);
}

TEST_F(LiaTest, DiseqDetection) {
  // x == 0 (eq) with diseq x != 0 must report Diseq.
  LiaSolver Lia;
  size_t Violated = 99;
  EXPECT_EQ(Lia.check({eq(TM.sumOfVar(X))}, {TM.sumOfVar(X)}, nullptr,
                      &Violated),
            LiaResult::Diseq);
  EXPECT_EQ(Violated, 0u);
}

TEST_F(LiaTest, UnsatCoreIsMinimalAndUnsat) {
  // x <= 0, x >= 5, y <= 3: core is the first two atoms.
  LinSum XLe = TM.sumOfVar(X);                       // x <= 0
  LinSum XGe = TermManager::sumScale(TM.sumOfVar(X), -1);
  XGe.Constant += 5;                                 // 5 - x <= 0
  LinSum YLe = TM.sumOfVar(Y);
  YLe.Constant -= 3;                                 // y - 3 <= 0
  std::vector<LiaAtom> Atoms = {le(XLe), le(YLe), le(XGe)};
  LiaSolver Lia;
  ASSERT_EQ(Lia.check(Atoms, {}, nullptr, nullptr), LiaResult::Unsat);
  std::vector<size_t> Core = Lia.unsatCore(Atoms);
  ASSERT_EQ(Core.size(), 2u);
  EXPECT_EQ(Core[0], 0u);
  EXPECT_EQ(Core[1], 2u);
}

TEST_F(LiaTest, BudgetExhaustionReportsUnknown) {
  // A single branching step needed but the budget allows zero nodes.
  LinSum Sum = TermManager::sumScale(TM.sumOfVar(X), -2);
  Sum.Constant += 1; // 1 - 2x <= 0, i.e. x >= 1/2: needs one branch.
  LiaSolver Tiny(/*MaxNodes=*/0);
  EXPECT_EQ(Tiny.check({le(Sum)}, {}, nullptr, nullptr),
            LiaResult::Unknown);
  LiaSolver Enough(/*MaxNodes=*/10);
  EXPECT_EQ(Enough.check({le(Sum)}, {}, nullptr, nullptr), LiaResult::Sat);
}

TEST_F(LiaTest, DeepBranchAndBoundStillTerminates) {
  // x + y == 7, 2x - 2y == 2 -> x = 4, y = 3 after integral pivots.
  LinSum SumEq = TermManager::sumAdd(TM.sumOfVar(X), TM.sumOfVar(Y));
  SumEq.Constant -= 7;
  LinSum DiffEq = TermManager::sumSub(TM.sumOfVar(X), TM.sumOfVar(Y));
  DiffEq.Constant -= 1;
  LiaSolver Lia;
  Assignment Model;
  ASSERT_EQ(Lia.check({eq(SumEq), eq(DiffEq)}, {}, &Model, nullptr),
            LiaResult::Sat);
  EXPECT_EQ(Model.intValue(X), 4);
  EXPECT_EQ(Model.intValue(Y), 3);
}

TEST_F(LiaTest, DeepDiveRunsOnSmallThreadStack) {
  // -a - c - 1 <= 0 and a + 2b - c + 2 == 0 leave b unbounded, so the left
  // dives never close and branch-and-bound goes down to its node budget
  // (the unsat-core probes pose such subsets of bounded queries). The
  // search must not recurse per node: run it on a 256 KiB thread stack.
  Term A = TM.mkVar("a", Sort::Int);
  Term B = TM.mkVar("b", Sort::Int);
  Term C = TM.mkVar("c", Sort::Int);
  LinSum Lower = TermManager::sumAdd(TermManager::sumScale(TM.sumOfVar(A), -1),
                                     TermManager::sumScale(TM.sumOfVar(C), -1));
  Lower.Constant -= 1;
  LinSum Link = TermManager::sumAdd(
      TermManager::sumAdd(TM.sumOfVar(A),
                          TermManager::sumScale(TM.sumOfVar(B), 2)),
      TermManager::sumScale(TM.sumOfVar(C), -1));
  Link.Constant += 2;
  struct Query {
    std::vector<LiaAtom> Atoms;
    LiaResult Result = LiaResult::Sat;
    uint64_t Pivots = 0;
  } Q{{le(Lower), eq(Link)}};
  auto Run = [](void *Arg) -> void * {
    auto *Q = static_cast<Query *>(Arg);
    LiaSolver Lia;
    Q->Result = Lia.check(Q->Atoms, {}, nullptr, nullptr);
    Q->Pivots = Lia.numWarmPivots();
    return nullptr;
  };
  pthread_attr_t Attr;
  ASSERT_EQ(pthread_attr_init(&Attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&Attr, 256 * 1024), 0);
  pthread_t Thread;
  ASSERT_EQ(pthread_create(&Thread, &Attr, Run, &Q), 0);
  ASSERT_EQ(pthread_join(Thread, nullptr), 0);
  pthread_attr_destroy(&Attr);
  EXPECT_EQ(Q.Result, LiaResult::Unknown);
  EXPECT_GT(Q.Pivots, 0u);
}

} // namespace
