//===- tests/support_test.cpp - Unit tests for the support library --------===//

#include "support/Random.h"
#include "support/Rational.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <set>

using namespace seqver;

TEST(Gcd64Test, BasicValues) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(12, -18), 6);
  EXPECT_EQ(gcd64(-12, -18), 6);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(gcd64(5, 0), 5);
  EXPECT_EQ(gcd64(0, 0), 0);
  EXPECT_EQ(gcd64(1, 1000000007), 1);
}

TEST(RationalTest, ConstructionNormalizes) {
  Rational R(6, 8);
  EXPECT_EQ(R.num(), 3);
  EXPECT_EQ(R.den(), 4);
  Rational Negative(3, -9);
  EXPECT_EQ(Negative.num(), -1);
  EXPECT_EQ(Negative.den(), 3);
}

TEST(RationalTest, Arithmetic) {
  Rational Half(1, 2);
  Rational Third(1, 3);
  EXPECT_EQ(Half + Third, Rational(5, 6));
  EXPECT_EQ(Half - Third, Rational(1, 6));
  EXPECT_EQ(Half * Third, Rational(1, 6));
  EXPECT_EQ(Half / Third, Rational(3, 2));
  EXPECT_EQ(-Half, Rational(-1, 2));
}

TEST(RationalTest, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_GE(Rational(7), Rational(7));
}

TEST(RationalTest, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(6, 2).floor(), 3);
  EXPECT_EQ(Rational(6, 2).ceil(), 3);
  EXPECT_EQ(Rational(0).floor(), 0);
}

TEST(RationalTest, IsIntegral) {
  EXPECT_TRUE(Rational(4, 2).isIntegral());
  EXPECT_FALSE(Rational(5, 2).isIntegral());
}

TEST(RationalTest, DivisionByNegative) {
  EXPECT_EQ(Rational(1) / Rational(-2), Rational(-1, 2));
  EXPECT_EQ(Rational(-6, 4) / Rational(-3), Rational(1, 2));
}

TEST(RationalTest, StrFormat) {
  EXPECT_EQ(Rational(3).str(), "3");
  EXPECT_EQ(Rational(-3, 2).str(), "-3/2");
}

TEST(RngTest, Deterministic) {
  Rng A(42);
  Rng B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1);
  Rng B(2);
  int Different = 0;
  for (int I = 0; I < 16; ++I)
    if (A.next() != B.next())
      ++Different;
  EXPECT_GT(Different, 0);
}

TEST(RngTest, BelowInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(13), 13u);
}

TEST(RngTest, RangeInclusive) {
  Rng R(7);
  std::set<int64_t> Seen;
  for (int I = 0; I < 500; ++I) {
    int64_t V = R.range(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u) << "all values in [-2,2] should appear";
}

TEST(RngTest, ShufflePermutes) {
  Rng R(99);
  std::vector<int> Values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Original = Values;
  R.shuffle(Values);
  std::multiset<int> A(Values.begin(), Values.end());
  std::multiset<int> B(Original.begin(), Original.end());
  EXPECT_EQ(A, B);
}

TEST(StatisticsTest, AddAndGet) {
  Statistics Stats;
  Stats.add("rounds");
  Stats.add("rounds", 4);
  EXPECT_EQ(Stats.get("rounds"), 5);
  EXPECT_EQ(Stats.get("missing"), 0);
}

TEST(StatisticsTest, SetMax) {
  Statistics Stats;
  Stats.setMax("peak", 10);
  Stats.setMax("peak", 7);
  EXPECT_EQ(Stats.get("peak"), 10);
  Stats.setMax("peak", 12);
  EXPECT_EQ(Stats.get("peak"), 12);
}

TEST(StatisticsTest, MergeFrom) {
  Statistics A, B;
  A.add("x", 2);
  B.add("x", 3);
  B.add("y", 1);
  A.mergeFrom(B);
  EXPECT_EQ(A.get("x"), 5);
  EXPECT_EQ(A.get("y"), 1);
}

TEST(StatisticsTest, MergeFromTakesTheMaxOfGauges) {
  Statistics A, B;
  A.setMax("peak", 10);
  B.setMax("peak", 7);
  B.setMax("only_b_peak", 4);
  B.add("x", 3);
  A.add("x", 2);
  A.mergeFrom(B);
  EXPECT_EQ(A.get("peak"), 10);
  EXPECT_EQ(A.get("only_b_peak"), 4);
  EXPECT_EQ(A.get("x"), 5);
  // A gauge stays a gauge through a merge into an empty bag.
  Statistics C, D;
  C.mergeFrom(A);
  D.setMax("peak", 12);
  D.mergeFrom(C);
  EXPECT_EQ(D.get("peak"), 12);
  C.mergeFrom(D);
  EXPECT_EQ(C.get("peak"), 12);
}

TEST(StringUtilsTest, JoinSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  auto Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[2], "");
}

TEST(StringUtilsTest, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcdef", 4), "abcdef");
}

TEST(StringUtilsTest, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
}

TEST(TimerTest, MeasuresForwardTime) {
  Timer T;
  EXPECT_GE(T.seconds(), 0.0);
}

TEST(DeadlineTest, NoBudgetNeverExpires) {
  Deadline D(0);
  EXPECT_FALSE(D.expired());
  Deadline Negative(-1);
  EXPECT_FALSE(Negative.expired());
}
