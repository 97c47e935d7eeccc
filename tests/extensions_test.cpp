//===- tests/extensions_test.cpp - DFA and proof minimization -------------===//
///
/// Tests for the components beyond the paper's core algorithms: DFA
/// minimization (used by the size studies) and greedy proof minimization.
///
//===----------------------------------------------------------------------===//

#include "automata/DfaOps.h"
#include "core/Portfolio.h"
#include "program/CfgBuilder.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace seqver;
using namespace seqver::automata;

namespace {

//===----------------------------------------------------------------------===//
// DFA minimization
//===----------------------------------------------------------------------===//

TEST(MinimizeTest, CollapsesDuplicateStates) {
  // Two redundant paths accepting exactly {ab}.
  Dfa A(2);
  State S0 = A.addState(false);
  State S1 = A.addState(false);
  State S2 = A.addState(false); // duplicate of S1
  State S3 = A.addState(true);
  A.setInitial(S0);
  A.addTransition(S0, 0, S1);
  A.addTransition(S1, 1, S3);
  A.addTransition(S2, 1, S3);
  Dfa M = minimize(A);
  EXPECT_TRUE(isEquivalent(A, M));
  EXPECT_EQ(M.numStates(), 3u);
}

TEST(MinimizeTest, EmptyLanguage) {
  Dfa A(1);
  State S0 = A.addState(false);
  A.setInitial(S0);
  A.addTransition(S0, 0, S0);
  Dfa M = minimize(A);
  EXPECT_TRUE(M.isEmpty());
  EXPECT_LE(M.numStates(), 1u);
}

TEST(MinimizeTest, AlreadyMinimalUnchangedInSize) {
  // Parity of letter 0: already minimal with 2 states.
  Dfa A(1);
  State Even = A.addState(true);
  State Odd = A.addState(false);
  A.setInitial(Even);
  A.addTransition(Even, 0, Odd);
  A.addTransition(Odd, 0, Even);
  Dfa M = minimize(A);
  EXPECT_TRUE(isEquivalent(A, M));
  EXPECT_EQ(M.numStates(), 2u);
}

/// Property sweep: minimization preserves the language and never increases
/// the reachable state count; double minimization is idempotent in size.
class MinimizeRandom : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeRandom, PreservesLanguageAndShrinks) {
  Rng R(static_cast<uint64_t>(GetParam()) * 887 + 3);
  uint32_t NumLetters = 2;
  uint32_t NumStates = 3 + static_cast<uint32_t>(R.below(5));
  Dfa A(NumLetters);
  for (uint32_t S = 0; S < NumStates; ++S)
    A.addState(R.below(3) == 0);
  A.setInitial(static_cast<State>(R.below(NumStates)));
  for (uint32_t S = 0; S < NumStates; ++S)
    for (Letter L = 0; L < NumLetters; ++L)
      if (R.below(100) < 80)
        A.addTransition(S, L, static_cast<State>(R.below(NumStates)));

  Dfa M = minimize(A);
  EXPECT_TRUE(isEquivalent(A, M));
  EXPECT_LE(M.numStates(), A.numReachableStates() + 1);
  Dfa M2 = minimize(M);
  EXPECT_EQ(M2.numStates(), M.numStates());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeRandom, ::testing::Range(0, 60));

//===----------------------------------------------------------------------===//
// Proof minimization
//===----------------------------------------------------------------------===//

TEST(MinimizeProofTest, ShrinksBluetoothProof) {
  smt::TermManager TM;
  prog::BuildResult B =
      prog::buildFromSource(workloads::bluetoothSource(2), TM);
  ASSERT_TRUE(B.ok());
  core::VerifierConfig Config;
  Config.TimeoutSeconds = 60;
  Config.MinimizeProof = true;
  core::VerificationResult R =
      core::runSingleOrder(*B.Program, Config, "seq");
  ASSERT_EQ(R.V, core::Verdict::Correct);
  EXPECT_GT(R.MinimizedProofSize, 0u);
  EXPECT_LE(R.MinimizedProofSize, R.ProofSize);
  // Sec. 2 reports 12 assertions for this proof; greedy minimization over
  // the wp-chain pool lands in the same ballpark.
  EXPECT_LE(R.MinimizedProofSize, 14u);
}

TEST(MinimizeProofTest, DisabledByDefault) {
  smt::TermManager TM;
  prog::BuildResult B =
      prog::buildFromSource(workloads::bluetoothSource(1), TM);
  ASSERT_TRUE(B.ok());
  core::VerifierConfig Config;
  Config.TimeoutSeconds = 60;
  core::VerificationResult R =
      core::runSingleOrder(*B.Program, Config, "seq");
  ASSERT_EQ(R.V, core::Verdict::Correct);
  EXPECT_EQ(R.MinimizedProofSize, 0u);
}

TEST(MinimizeProofTest, NotComputedForBugs) {
  smt::TermManager TM;
  prog::BuildResult B = prog::buildFromSource(
      workloads::bluetoothSource(1, /*WithBug=*/true), TM);
  ASSERT_TRUE(B.ok());
  core::VerifierConfig Config;
  Config.TimeoutSeconds = 60;
  Config.MinimizeProof = true;
  core::VerificationResult R =
      core::runSingleOrder(*B.Program, Config, "seq");
  ASSERT_EQ(R.V, core::Verdict::Incorrect);
  EXPECT_EQ(R.MinimizedProofSize, 0u);
}

} // namespace
