//===- tests/hotpath_differential_test.cpp - Index differential -----------===//
///
/// Differential suite for the interned state index (docs/PERF.md): for
/// every tier-1 workload, the hashed InternTable-based reduction
/// construction must build an automaton *identical* to the pre-change
/// ordered std::map construction kept behind the SEQVER_LEGACY_INDEX /
/// ReductionConfig::LegacyIndex test-only path. Both paths discover states
/// in the same BFS order, so the comparison is exact equality of state
/// count, initial state, acceptance flags, and transition lists — not just
/// isomorphism.
///
//===----------------------------------------------------------------------===//

#include "program/CfgBuilder.h"
#include "reduction/SleepSet.h"
#include "smt/Solver.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace seqver;
using seqver::automata::Dfa;
using seqver::automata::Letter;

namespace {

/// Exact structural equality (not just language equality): state ids,
/// acceptance, and per-state transition lists must match one-to-one.
void expectIdenticalDfa(const Dfa &A, const Dfa &B, const std::string &What) {
  ASSERT_EQ(A.numLetters(), B.numLetters()) << What;
  ASSERT_EQ(A.numStates(), B.numStates()) << What;
  EXPECT_EQ(A.initial(), B.initial()) << What;
  for (uint32_t S = 0; S < A.numStates(); ++S) {
    EXPECT_EQ(A.isAccepting(S), B.isAccepting(S)) << What << " state " << S;
    EXPECT_EQ(A.transitionsFrom(S), B.transitionsFrom(S))
        << What << " state " << S;
  }
}

/// buildReduction: hashed vs legacy index over every tier-1 workload, for
/// both a non-positional (seq) and a positional (lockstep) order, with and
/// without the persistent-set membrane.
TEST(HotpathDifferentialTest, ProgramReductionsIdenticalOnTier1) {
  for (const auto &W : workloads::tier1Suite()) {
    smt::TermManager TM;
    prog::BuildResult B = prog::buildFromSource(W.Source, TM);
    ASSERT_TRUE(B.ok()) << W.Name << ": " << B.Error;
    smt::QueryEngine QE(TM);
    red::CommutativityChecker Commut(
        *B.Program, QE, red::CommutativityChecker::Mode::Static);
    red::SequentialOrder Seq(*B.Program);
    red::LockstepOrder Lockstep(*B.Program);

    for (const red::PreferenceOrder *Order :
         {static_cast<const red::PreferenceOrder *>(&Seq),
          static_cast<const red::PreferenceOrder *>(&Lockstep)}) {
      for (bool Persistent : {true, false}) {
        red::ReductionConfig Hashed;
        Hashed.UsePersistentSets = Persistent;
        // Cap the construction: the sleep-only automaton of the larger
        // instances is exponential, and a capped BFS prefix is an equally
        // strong differential witness (OverflowPrefixIdentical covers the
        // cap behavior itself).
        Hashed.MaxStates = 4000;
        Hashed.LegacyIndex = false;
        red::ReductionConfig Legacy = Hashed;
        Legacy.LegacyIndex = true;

        auto H = red::buildReduction(*B.Program, Order, Commut, Hashed);
        auto L = red::buildReduction(*B.Program, Order, Commut, Legacy);
        EXPECT_EQ(H.Overflow, L.Overflow);
        expectIdenticalDfa(H.Automaton, L.Automaton,
                           W.Name + "/" + Order->name() +
                               (Persistent ? "/combined" : "/sleep-only"));
      }
    }
  }
}

/// The MaxStates safety valve must trip identically: both paths visit
/// states in the same BFS order, so they overflow at the same point with
/// the same materialized prefix.
TEST(HotpathDifferentialTest, OverflowPrefixIdentical) {
  smt::TermManager TM;
  prog::BuildResult B =
      prog::buildFromSource(workloads::bluetoothSource(4), TM);
  ASSERT_TRUE(B.ok()) << B.Error;
  smt::QueryEngine QE(TM);
  red::CommutativityChecker Commut(
      *B.Program, QE, red::CommutativityChecker::Mode::Static);
  red::SequentialOrder Order(*B.Program);

  red::ReductionConfig Hashed;
  Hashed.MaxStates = 100;
  Hashed.LegacyIndex = false;
  red::ReductionConfig Legacy = Hashed;
  Legacy.LegacyIndex = true;

  auto H = red::buildReduction(*B.Program, &Order, Commut, Hashed);
  auto L = red::buildReduction(*B.Program, &Order, Commut, Legacy);
  EXPECT_TRUE(H.Overflow);
  EXPECT_TRUE(L.Overflow);
  expectIdenticalDfa(H.Automaton, L.Automaton, "bluetooth(4)/capped");
}

/// Generic sleep-set construction (the Dfa-level entry point used by the
/// reduction theorems' tests): hashed vs ordered index on a synthetic
/// complete automaton with a nontrivial commutativity relation.
TEST(HotpathDifferentialTest, GenericSleepSetAutomatonIdentical) {
  struct IdentityOrder final : red::PreferenceOrder {
    bool less(Context, Letter A, Letter B) const override { return A < B; }
    std::string name() const override { return "identity"; }
  };

  constexpr uint32_t NumStates = 64;
  constexpr uint32_t NumLetters = 6;
  Dfa Base(NumLetters);
  for (uint32_t S = 0; S < NumStates; ++S)
    Base.addState(S % 5 == 0);
  Base.setInitial(0);
  for (uint32_t S = 0; S < NumStates; ++S)
    for (Letter L = 0; L < NumLetters; ++L)
      Base.addTransition(S, L, (S * 13 + L + 1) % NumStates);

  IdentityOrder Order;
  auto Commutes = [](Letter A, Letter B) { return ((A ^ B) & 1) == 0; };
  Dfa H = red::sleepSetAutomaton(Base, Order, Commutes, /*MaxStates=*/0,
                                 /*Overflow=*/nullptr, /*LegacyIndex=*/false);
  Dfa L = red::sleepSetAutomaton(Base, Order, Commutes, /*MaxStates=*/0,
                                 /*Overflow=*/nullptr, /*LegacyIndex=*/true);
  expectIdenticalDfa(H, L, "synthetic/sleep-set");
}

} // namespace
