//===- tests/hotpath_differential_test.cpp - Reduction-construction oracle ===//
///
/// Differential suite for the program-reduction construction (docs/PERF.md
/// §3). The oracle is the generic sleep set automaton of Def. 5.1 built
/// over the program's explicit interleaving product:
///
///   sleepSetAutomaton(P.explicitProduct(Mode), Order, Commut.commutes)
///
/// With sleep sets only (no persistent membrane), buildReduction must build
/// that automaton *identically*: both constructions add states in the same
/// BFS discovery order, so the comparison is exact equality of state count,
/// initial state, acceptance flags and transition lists, not isomorphism.
/// The two use different state keys (interned product-state id vs explicit
/// Dfa state), so a key that drops a component shows up as a difference.
/// With the membrane on, Thm. 6.6 says the language stays the same and the
/// construction can only drop states.
///
//===----------------------------------------------------------------------===//

#include "automata/DfaOps.h"
#include "program/CfgBuilder.h"
#include "reduction/SleepSet.h"
#include "reduction_helpers.h"
#include "smt/Solver.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace seqver;
using seqver::automata::Dfa;
using seqver::automata::Letter;

namespace {

/// Product-size bound for the oracle: larger interleaving products are
/// skipped rather than built explicitly.
constexpr uint32_t kMaxProductStates = 20000;
/// Reduction-size bound: keeps the largest lockstep unrollings (390k
/// states for bluetooth_5) from dominating the test's run time.
constexpr uint32_t kMaxReductionStates = 60000;

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

/// The oracle over an already built explicit product.
Dfa sleepOracle(const Dfa &Product, const red::PreferenceOrder &Order,
                red::CommutativityChecker &Commut, uint32_t MaxStates = 0,
                bool *Overflow = nullptr) {
  return red::sleepSetAutomaton(
      Product, Order,
      [&Commut](Letter A, Letter B) { return Commut.commutes(A, B); },
      MaxStates, Overflow);
}

/// buildReduction with sleep sets and, optionally, the membrane.
red::ProgramReduction reduce(const prog::ConcurrentProgram &P,
                             const red::PreferenceOrder &Order,
                             red::CommutativityChecker &Commut,
                             bool Persistent,
                             prog::AcceptMode Mode = prog::AcceptMode::Error,
                             uint32_t MaxStates = 0) {
  red::ReductionConfig Config;
  Config.UsePersistentSets = Persistent;
  Config.Mode = Mode;
  Config.MaxStates = MaxStates;
  return red::buildReduction(P, &Order, Commut, Config);
}

/// Sleep-only: identical to the oracle. Combined: the same language
/// (Thm. 6.6) with no more reachable states. A sleep-only reduction over
/// kMaxReductionStates is compared as a capped BFS prefix, which has no
/// language to compare the combined reduction against.
void checkAgainstOracle(const prog::ConcurrentProgram &P, const Dfa &Product,
                        const red::PreferenceOrder &Order,
                        red::CommutativityChecker &Commut,
                        prog::AcceptMode Mode, const std::string &What) {
  auto SleepOnly = reduce(P, Order, Commut, /*Persistent=*/false, Mode,
                          kMaxReductionStates);
  bool OracleOverflow = false;
  Dfa Oracle = sleepOracle(Product, Order, Commut, kMaxReductionStates,
                           &OracleOverflow);
  EXPECT_EQ(SleepOnly.Overflow, OracleOverflow) << What;
  expectIdenticalDfa(SleepOnly.Automaton, Oracle, What + "/sleep-only");
  if (SleepOnly.Overflow)
    return;

  auto Combined = reduce(P, Order, Commut, /*Persistent=*/true, Mode,
                         kMaxReductionStates);
  ASSERT_FALSE(Combined.Overflow) << What;
  EXPECT_LE(Combined.Automaton.numStates(), SleepOnly.Automaton.numStates())
      << What << "/combined";
  EXPECT_TRUE(
      automata::isEquivalent(Combined.Automaton, SleepOnly.Automaton))
      << What << "/combined";
}

/// Every tier-1 workload whose interleaving product fits the bound, under
/// a non-positional (seq) and a positional (lockstep) order.
TEST(HotpathDifferentialTest, ProgramReductionsIdenticalOnTier1) {
  size_t Total = 0, Compared = 0;
  for (const auto &W : workloads::tier1Suite()) {
    ++Total;
    smt::TermManager TM;
    prog::BuildResult B = prog::buildFromSource(W.Source, TM);
    ASSERT_TRUE(B.ok()) << W.Name << ": " << B.Error;
    bool ProductOverflow = false;
    Dfa Product = B.Program->explicitProduct(
        prog::AcceptMode::Error, kMaxProductStates, &ProductOverflow);
    if (ProductOverflow)
      continue;
    ++Compared;
    smt::QueryEngine QE(TM);
    red::CommutativityChecker Commut(
        *B.Program, QE, red::CommutativityChecker::Mode::Static);
    red::SequentialOrder Seq(*B.Program);
    red::LockstepOrder Lockstep(*B.Program);
    for (const red::PreferenceOrder *Order :
         {static_cast<const red::PreferenceOrder *>(&Seq),
          static_cast<const red::PreferenceOrder *>(&Lockstep)})
      checkAgainstOracle(*B.Program, Product, *Order, Commut,
                         prog::AcceptMode::Error,
                         W.Name + "/" + Order->name());
  }
  // The bound skips only the few largest products.
  EXPECT_GE(Compared * 10, Total * 9) << Compared << " of " << Total;
}

/// The MaxStates safety valve trips identically: both constructions visit
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
  bool ProductOverflow = false;
  Dfa Product = B.Program->explicitProduct(
      prog::AcceptMode::Error, kMaxProductStates, &ProductOverflow);
  ASSERT_FALSE(ProductOverflow);

  constexpr uint32_t kCap = 100;
  auto Capped = reduce(*B.Program, Order, Commut, /*Persistent=*/false,
                       prog::AcceptMode::Error, kCap);
  bool OracleOverflow = false;
  Dfa Oracle = sleepOracle(Product, Order, Commut, kCap, &OracleOverflow);
  EXPECT_TRUE(Capped.Overflow);
  EXPECT_TRUE(OracleOverflow);
  expectIdenticalDfa(Capped.Automaton, Oracle, "bluetooth(4)/capped");
}

/// The same oracle over random programs with cycles and an error edge,
/// alternating the acceptance mode, under seq and lockstep.
TEST(HotpathDifferentialTest, GenericSleepSetAutomatonIdentical) {
  for (uint64_t Seed = 0; Seed < 40; ++Seed) {
    smt::TermManager TM;
    smt::QueryEngine QE(TM);
    Rng R(Seed * 7919 + 3);
    auto P = seqver::testing::makeRandomProgram(
        TM, R, 2 + static_cast<int>(R.below(2)), /*MaxActionsPerThread=*/4,
        /*VarPoolSize=*/3, /*Acyclic=*/false, /*WithAssert=*/true);
    red::CommutativityChecker Commut(
        *P, QE, red::CommutativityChecker::Mode::Syntactic);
    prog::AcceptMode Mode =
        Seed % 2 ? prog::AcceptMode::AllExit : prog::AcceptMode::Error;
    Dfa Product = P->explicitProduct(Mode);
    red::SequentialOrder Seq(*P);
    red::LockstepOrder Lockstep(*P);
    for (const red::PreferenceOrder *Order :
         {static_cast<const red::PreferenceOrder *>(&Seq),
          static_cast<const red::PreferenceOrder *>(&Lockstep)})
      checkAgainstOracle(*P, Product, *Order, Commut, Mode,
                         "seed " + std::to_string(Seed) + "/" +
                             Order->name());
  }
}

} // namespace
