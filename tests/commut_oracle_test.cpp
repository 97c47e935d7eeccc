//===- tests/commut_oracle_test.cpp - Shared commutativity oracle ---------===//
///
/// \file
/// The shared commutativity oracle (reduction/CommutOracle.h): canonical
/// keys must agree across independent TermManagers, and sharing must be
/// deterministic and respect the publication invariants (cancelled and
/// location-dependent answers stay out).
///
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"
#include "persist/Fingerprint.h"
#include "program/CfgBuilder.h"
#include "reduction/CommutOracle.h"
#include "reduction/Commutativity.h"
#include "runtime/Cancellation.h"
#include "runtime/ParallelPortfolio.h"
#include "smt/Solver.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace seqver;
using red::CommutativityChecker;
using red::CommutOracle;
using red::OracleAnswer;

namespace {

/// Footprint-conflicting but semantically commuting increments (x+1 vs
/// x+2) next to a genuinely dependent pair (x+1 vs 2x). Letters: 0 = a's
/// statement, 1 = b's, 2 = c's.
const char *SemanticSource = "var int x;"
                             "thread a { x := x + 1; }"
                             "thread b { x := x + 2; }"
                             "thread c { x := 2 * x; }";

std::unique_ptr<prog::ConcurrentProgram> build(const std::string &Source,
                                               smt::TermManager &TM) {
  prog::BuildResult R = prog::buildFromSource(Source, TM);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.Program);
}

persist::Fingerprint keyOf(uint64_t Hi, uint64_t Lo) {
  persist::Fingerprint FP;
  FP.Hi = Hi;
  FP.Lo = Lo;
  return FP;
}

} // namespace

//===----------------------------------------------------------------------===//
// Canonical keys
//===----------------------------------------------------------------------===//

TEST(CanonicalKeyTest, StableAcrossIndependentManagers) {
  // Two managers populated differently before the program builds, so the
  // interned term ids (and pointers) diverge — the canonical text must
  // not.
  smt::TermManager TM1, TM2;
  TM2.mkVar("unrelated_clutter", smt::Sort::Int);
  auto P1 = build(SemanticSource, TM1);
  auto P2 = build(SemanticSource, TM2);
  ASSERT_EQ(P1->numLetters(), P2->numLetters());
  for (automata::Letter L = 0; L < P1->numLetters(); ++L)
    EXPECT_EQ(red::canonicalActionText(TM1, P1->action(L)),
              red::canonicalActionText(TM2, P2->action(L)))
        << "letter " << L;

  std::string A0 = red::canonicalActionText(TM1, P1->action(0));
  std::string A1 = red::canonicalActionText(TM1, P1->action(1));
  std::string A2 = red::canonicalActionText(TM1, P1->action(2));
  EXPECT_EQ(CommutOracle::makeKey(A0, A1, "true"),
            CommutOracle::makeKey(A0, A1, "true"));
  EXPECT_NE(CommutOracle::makeKey(A0, A1, "true"),
            CommutOracle::makeKey(A0, A2, "true"));
  // The context is part of the key.
  EXPECT_NE(CommutOracle::makeKey(A0, A1, "true"),
            CommutOracle::makeKey(A0, A1, "(<= x 5)"));
  // Field boundaries are length-prefixed: shifting a character between
  // fields must change the key.
  EXPECT_NE(CommutOracle::makeKey("ab", "c", "true"),
            CommutOracle::makeKey("a", "bc", "true"));
}

// Regression for the historical split cache entry: commutes() passes
// Phi = nullptr while trivial-context callers pass mkTrue(); both must
// canonicalize to one key, one cache entry, one oracle entry.
TEST(CanonicalKeyTest, NullptrAndMkTrueShareOneEntry) {
  smt::TermManager TM;
  smt::QueryEngine QE{TM};
  auto P = build(SemanticSource, TM);
  CommutativityChecker C(*P, QE, CommutativityChecker::Mode::Semantic);
  CommutOracle Oracle;
  C.setSharedOracle(&Oracle);

  EXPECT_TRUE(C.commutes(0, 1));
  EXPECT_TRUE(C.commutesUnder(TM.mkTrue(), 0, 1));
  EXPECT_EQ(C.numCachedQueries(), 1u)
      << "nullptr and mkTrue() must share one private cache entry";
  EXPECT_EQ(Oracle.size(), 1u)
      << "nullptr and mkTrue() must share one oracle entry";
}

//===----------------------------------------------------------------------===//
// Sharing and publication invariants
//===----------------------------------------------------------------------===//

TEST(SharedOracleTest, SecondCheckerHitsWithoutSolver) {
  // Checker 1 (its own manager) settles the queries; checker 2, on a
  // program built by an independent manager, must answer from the shared
  // table without a single semantic solver query.
  smt::TermManager TM1;
  smt::QueryEngine QE1{TM1};
  auto P1 = build(SemanticSource, TM1);
  CommutOracle Oracle;
  CommutativityChecker C1(*P1, QE1, CommutativityChecker::Mode::Semantic);
  C1.disableStaticTier(); // force the semantic tier to settle the pairs
  C1.setSharedOracle(&Oracle);
  EXPECT_TRUE(C1.commutes(0, 1));
  EXPECT_FALSE(C1.commutes(0, 2));
  ASSERT_GE(Oracle.size(), 2u);

  smt::TermManager TM2;
  smt::QueryEngine QE2{TM2};
  auto P2 = build(SemanticSource, TM2);
  CommutativityChecker C2(*P2, QE2, CommutativityChecker::Mode::Semantic);
  C2.disableStaticTier();
  C2.setSharedOracle(&Oracle);
  Statistics Stats;
  C2.setStatistics(&Stats);
  EXPECT_TRUE(C2.commutes(0, 1));
  EXPECT_FALSE(C2.commutes(0, 2));
  EXPECT_EQ(Stats.get("commut_semantic"), 0)
      << "settled queries must not reach the solver again";
  EXPECT_EQ(Stats.get("commut_shared_hits"), 2);
}

TEST(SharedOracleTest, ContextFreePositiveSubsumesOtherContexts) {
  // x+1 / x+2 commute with no context at all; a checker that proves that
  // under one Phi publishes the context-free fact, and another checker
  // querying under a *different* Phi must hit it (the exact key differs).
  smt::TermManager TM1;
  smt::QueryEngine QE1{TM1};
  auto P1 = build(SemanticSource, TM1);
  smt::Term X1 = TM1.lookupVar("x");
  ASSERT_NE(X1, nullptr);
  CommutOracle Oracle;
  CommutativityChecker C1(*P1, QE1, CommutativityChecker::Mode::Semantic);
  C1.disableStaticTier();
  C1.setSharedOracle(&Oracle);
  smt::Term Phi1 = TM1.mkLe(TM1.sumOfVar(X1), TM1.sumOfConst(5));
  EXPECT_TRUE(C1.commutesUnder(Phi1, 0, 1));

  smt::TermManager TM2;
  smt::QueryEngine QE2{TM2};
  auto P2 = build(SemanticSource, TM2);
  smt::Term X2 = TM2.lookupVar("x");
  CommutativityChecker C2(*P2, QE2, CommutativityChecker::Mode::Semantic);
  C2.disableStaticTier();
  C2.setSharedOracle(&Oracle);
  Statistics Stats;
  C2.setStatistics(&Stats);
  smt::Term Phi2 = TM2.mkLe(TM2.sumOfVar(X2), TM2.sumOfConst(7));
  EXPECT_TRUE(C2.commutesUnder(Phi2, 0, 1));
  EXPECT_EQ(Stats.get("commut_semantic"), 0);
  EXPECT_EQ(Stats.get("commut_shared_subsumed"), 1)
      << "the context-free entry must answer the new context";
}

TEST(SharedOracleTest, CancelledAnswerNeverPublished) {
  smt::TermManager TM;
  smt::QueryEngine QE{TM};
  auto P = build(SemanticSource, TM);
  CommutativityChecker C(*P, QE, CommutativityChecker::Mode::Semantic);
  C.disableStaticTier();
  CommutOracle Oracle;
  C.setSharedOracle(&Oracle);
  Statistics Stats;
  C.setStatistics(&Stats);

  runtime::CancellationToken Token;
  Token.requestCancel();
  C.watchCancellation(&Token);

  // The pre-solver poll answers "dependent" — a panic placeholder, not a
  // fact: it must reach neither the private cache nor the shared table.
  EXPECT_FALSE(C.commutes(0, 1));
  EXPECT_EQ(Stats.get("commut_cancelled"), 1);
  EXPECT_EQ(Oracle.size(), 0u);
  EXPECT_EQ(C.numCachedQueries(), 0u);
}

TEST(SharedOracleTest, StaticModeUndecidedStaysPrivate) {
  // Mode::Static cannot settle x+1 vs x+2 (the static tier's interval
  // reasoning gives up on symbolic sums) — the conservative "dependent"
  // is cached privately but must not be published as a fact.
  smt::TermManager TM;
  smt::QueryEngine QE{TM};
  auto P = build(SemanticSource, TM);
  CommutativityChecker C(*P, QE, CommutativityChecker::Mode::Static);
  CommutOracle Oracle;
  C.setSharedOracle(&Oracle);
  bool Answer = C.commutes(0, 1);
  if (!Answer) { // undecided only; a static proof would be a shareable fact
    EXPECT_EQ(Oracle.size(), 0u);
  }
}

TEST(SharedOracleTest, ParallelPortfolioRerunHitsSharedTable) {
  // Determinism seam for the racing portfolio: the first race fills the
  // table, so a second race over the same oracle must start every worker
  // warm — nonzero hub-merged shared hits, identical verdict.
  const std::string Source = "var int x := 0;"
                             "var int y := 0;"
                             "thread a { x := x + 1; y := y + x; }"
                             "thread b { x := x + 2; y := y + 1; }"
                             "thread c { assert y >= 0; }";
  core::VerifierConfig Base;
  Base.TimeoutSeconds = 20;
  runtime::ParallelConfig PC;
  PC.Jobs = 2;
  CommutOracle Oracle;
  PC.SharedCommut = &Oracle;
  runtime::ParallelPortfolioResult R1 =
      runtime::runPortfolioParallel(Source, Base, PC);
  ASSERT_TRUE(R1.decisive());
  EXPECT_GT(Oracle.size(), 0u);
  runtime::ParallelPortfolioResult R2 =
      runtime::runPortfolioParallel(Source, Base, PC);
  EXPECT_EQ(R1.Best.V, R2.Best.V);
  EXPECT_GT(R2.Merged.get("commut_shared_hits"), 0);
}

//===----------------------------------------------------------------------===//
// Concurrency (also re-run TSan-instrumented as reduction.tsan)
//===----------------------------------------------------------------------===//

TEST(CommutOracleParallelTest, ConcurrentPublishLookupClear) {
  CommutOracle Oracle;
  constexpr int NumThreads = 8;
  constexpr uint64_t KeysPerThread = 512;
  std::atomic<int> Wrong{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&Oracle, &Wrong, T] {
      for (uint64_t I = 0; I < KeysPerThread; ++I) {
        // Half the keys are shared across threads (same answer from every
        // writer — the first-writer-wins contract), half private.
        bool SharedKey = (I & 1) == 0;
        uint64_t Hi = SharedKey ? I : (I + 1) * 1000003ULL + T;
        persist::Fingerprint K = keyOf(Hi, Hi * 0x9E3779B97F4A7C15ULL);
        bool Answer = (Hi & 2) != 0;
        Oracle.publish(K, Answer);
        OracleAnswer Got = Oracle.lookup(K);
        if (Got != (Answer ? OracleAnswer::Commutes
                           : OracleAnswer::Dependent))
          Wrong.fetch_add(1);
      }
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Wrong.load(), 0);
  EXPECT_GT(Oracle.size(), KeysPerThread / 2);

  // clear() under concurrent republish must neither crash nor corrupt.
  std::vector<std::thread> Round2;
  for (int T = 0; T < 4; ++T)
    Round2.emplace_back([&Oracle, T] {
      for (uint64_t I = 0; I < 256; ++I) {
        persist::Fingerprint K = keyOf(I + T, I);
        Oracle.publish(K, true);
        (void)Oracle.lookup(K);
        if (I % 64 == 0 && T == 0)
          Oracle.clear();
      }
    });
  for (auto &T : Round2)
    T.join();
}
