//===- tests/smt_term_test.cpp - Term canonicalization tests --------------===//

#include "smt/Evaluator.h"
#include "smt/Term.h"

#include <gtest/gtest.h>

using namespace seqver;
using namespace seqver::smt;

namespace {

class TermTest : public ::testing::Test {
protected:
  TermManager TM;
  Term X = TM.mkVar("x", Sort::Int);
  Term Y = TM.mkVar("y", Sort::Int);
  Term P = TM.mkVar("p", Sort::Bool);
  Term Q = TM.mkVar("q", Sort::Bool);

  LinSum sx() { return TM.sumOfVar(X); }
  LinSum sy() { return TM.sumOfVar(Y); }
  LinSum c(int64_t V) { return TM.sumOfConst(V); }
};

TEST_F(TermTest, VariablesAreInterned) {
  EXPECT_EQ(TM.mkVar("x", Sort::Int), X);
  EXPECT_EQ(TM.lookupVar("x"), X);
  EXPECT_EQ(TM.lookupVar("nope"), nullptr);
}

TEST_F(TermTest, ConstantsFold) {
  EXPECT_EQ(TM.mkLe(c(1), c(2)), TM.mkTrue());
  EXPECT_EQ(TM.mkLe(c(3), c(2)), TM.mkFalse());
  EXPECT_EQ(TM.mkEq(c(2), c(2)), TM.mkTrue());
  EXPECT_EQ(TM.mkLt(c(2), c(2)), TM.mkFalse());
}

TEST_F(TermTest, AtomsAreHashConsed) {
  // x + x <= 2y  and  2x - 2y <= 0  normalize identically (gcd reduction).
  Term A = TM.mkLe(TermManager::sumAdd(sx(), sx()), TermManager::sumScale(sy(), 2));
  Term B = TM.mkLe(TermManager::sumSub(TermManager::sumScale(sx(), 2),
                                       TermManager::sumScale(sy(), 2)),
                   c(0));
  EXPECT_EQ(A, B);
  EXPECT_EQ(A, TM.mkLe(sx(), sy()));
}

TEST_F(TermTest, GcdTighteningOnLe) {
  // 2x <= 1  tightens to  x <= 0.
  Term A = TM.mkLe(TermManager::sumScale(sx(), 2), c(1));
  Term B = TM.mkLe(sx(), c(0));
  EXPECT_EQ(A, B);
}

TEST_F(TermTest, GcdUnsatOnEq) {
  // 2x == 1 is unsatisfiable over the integers.
  EXPECT_EQ(TM.mkEq(TermManager::sumScale(sx(), 2), c(1)), TM.mkFalse());
}

TEST_F(TermTest, EqSignNormalization) {
  // x == y and y == x produce the same node.
  EXPECT_EQ(TM.mkEq(sx(), sy()), TM.mkEq(sy(), sx()));
}

TEST_F(TermTest, NegationOfLeIsLe) {
  Term A = TM.mkLe(sx(), c(0));
  Term NotA = TM.mkNot(A);
  EXPECT_EQ(NotA->kind(), TermKind::AtomLe);
  // not (x <= 0)  is  x >= 1.
  EXPECT_EQ(NotA, TM.mkGe(sx(), c(1)));
  EXPECT_EQ(TM.mkNot(NotA), A);
}

TEST_F(TermTest, DoubleNegation) {
  Term NotP = TM.mkNot(P);
  EXPECT_EQ(TM.mkNot(NotP), P);
}

TEST_F(TermTest, AndOrCanonicalization) {
  EXPECT_EQ(TM.mkAnd(P, TM.mkTrue()), P);
  EXPECT_EQ(TM.mkAnd(P, TM.mkFalse()), TM.mkFalse());
  EXPECT_EQ(TM.mkOr(P, TM.mkTrue()), TM.mkTrue());
  EXPECT_EQ(TM.mkOr(P, TM.mkFalse()), P);
  EXPECT_EQ(TM.mkAnd(P, P), P);
  EXPECT_EQ(TM.mkAnd(P, Q), TM.mkAnd(Q, P));
  EXPECT_EQ(TM.mkAnd(P, TM.mkNot(P)), TM.mkFalse());
  EXPECT_EQ(TM.mkOr(P, TM.mkNot(P)), TM.mkTrue());
}

TEST_F(TermTest, AndFlattening) {
  Term Nested = TM.mkAnd(P, TM.mkAnd(Q, TM.mkLe(sx(), c(5))));
  EXPECT_EQ(Nested->kind(), TermKind::And);
  EXPECT_EQ(Nested->children().size(), 3u);
}

TEST_F(TermTest, IffFolding) {
  EXPECT_EQ(TM.mkIff(P, P), TM.mkTrue());
  EXPECT_EQ(TM.mkIff(P, TM.mkNot(P)), TM.mkFalse());
  EXPECT_EQ(TM.mkIff(P, TM.mkTrue()), P);
  EXPECT_EQ(TM.mkIff(TM.mkFalse(), P), TM.mkNot(P));
  EXPECT_EQ(TM.mkIff(P, Q), TM.mkIff(Q, P));
}

TEST_F(TermTest, ImpliesViaOr) {
  Term I = TM.mkImplies(P, Q);
  EXPECT_EQ(I, TM.mkOr(TM.mkNot(P), Q));
  EXPECT_EQ(TM.mkImplies(TM.mkFalse(), P), TM.mkTrue());
  EXPECT_EQ(TM.mkImplies(P, TM.mkTrue()), TM.mkTrue());
}

TEST_F(TermTest, SubstituteIntVar) {
  // (x <= 3)[x := y + 1]  ==  y + 1 <= 3  ==  y <= 2.
  Term A = TM.mkLe(sx(), c(3));
  Substitution Subst;
  LinSum Repl = TermManager::sumAdd(sy(), c(1));
  Subst.IntMap[X] = Repl;
  EXPECT_EQ(TM.substitute(A, Subst), TM.mkLe(sy(), c(2)));
}

TEST_F(TermTest, SubstituteBoolVar) {
  Term F = TM.mkAnd(P, Q);
  Substitution Subst;
  Subst.BoolMap[P] = TM.mkTrue();
  EXPECT_EQ(TM.substitute(F, Subst), Q);
}

TEST_F(TermTest, SubstituteNoChangeReturnsSameNode) {
  Term A = TM.mkLe(sx(), c(3));
  Substitution Subst;
  Subst.IntMap[Y] = c(7);
  EXPECT_EQ(TM.substitute(A, Subst), A);
}

TEST_F(TermTest, CollectVars) {
  Term F = TM.mkAnd(TM.mkLe(sx(), sy()), P);
  std::vector<Term> Vars;
  TM.collectVars(F, Vars);
  EXPECT_EQ(Vars.size(), 3u);
}

TEST_F(TermTest, EvaluatorAgreesWithSemantics) {
  Assignment Values;
  Values.IntValues[X] = 3;
  Values.IntValues[Y] = 4;
  Values.BoolValues[P] = true;
  EXPECT_TRUE(evalFormula(TM.mkLe(sx(), sy()), Values));
  EXPECT_FALSE(evalFormula(TM.mkLt(sy(), sx()), Values));
  EXPECT_TRUE(evalFormula(TM.mkAnd(P, TM.mkLe(sx(), c(3))), Values));
  EXPECT_FALSE(evalFormula(TM.mkEq(sx(), sy()), Values));
  EXPECT_TRUE(evalFormula(TM.mkIff(P, TM.mkLe(sx(), c(3))), Values));
}

TEST_F(TermTest, SatisfiesTreatsOverflowAsUnsatisfied) {
  const int64_t Max = INT64_MAX;
  // Max*x + (Max-1)*y <= 0: consecutive coefficients, so no gcd folding.
  LinSum Big = TermManager::sumAdd(TermManager::sumScale(sx(), Max),
                                   TermManager::sumScale(sy(), Max - 1));
  Term Le = TM.mkLeZero(Big);
  ASSERT_EQ(Le->kind(), TermKind::AtomLe);
  Assignment Values;
  Values.IntValues[X] = 1;
  Values.IntValues[Y] = 0;
  // Max + 0 is exact: the atom is false and its negation true.
  EXPECT_FALSE(satisfies(Values, Le));
  EXPECT_TRUE(satisfies(Values, TM.mkNot(Le)));
  // Max + (Max-1) = 2^64 - 3 wraps to -3, which would make the atom hold.
  Values.IntValues[Y] = 1;
  EXPECT_TRUE(evalFormula(Le, Values));
  EXPECT_FALSE(satisfies(Values, Le));
  EXPECT_FALSE(satisfies(Values, TM.mkNot(Le)));
  // The product Max * 2 overflows before any addition.
  Values.IntValues[X] = 2;
  Values.IntValues[Y] = 0;
  EXPECT_FALSE(satisfies(Values, Le));
  EXPECT_FALSE(satisfies(Values, TM.mkNot(Le)));
}

TEST_F(TermTest, DefaultAssignmentValues) {
  Assignment Values;
  EXPECT_EQ(Values.intValue(X), 0);
  EXPECT_FALSE(Values.boolValue(P));
}

TEST_F(TermTest, StrRendersReadably) {
  EXPECT_EQ(TM.str(TM.mkTrue()), "true");
  Term A = TM.mkLe(sx(), c(3));
  EXPECT_EQ(TM.str(A), "(x - 3 <= 0)");
}

} // namespace
