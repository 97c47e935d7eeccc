//===- tests/reduction_test.cpp - Reduction machinery tests ---------------===//
///
/// Validates the paper's core constructions against brute-force references:
///  - Thm. 5.3: the sleep set automaton recognizes exactly the set of
///    lex-minimal class representatives;
///  - language-minimality (Thm. 4.7): no two accepted words are equivalent;
///  - Thm. 6.6: composing with the persistent-set pi-reduction preserves the
///    language while shrinking the automaton;
///  - Prop. 7.1: Algorithm 1 outputs weakly persistent membranes compatible
///    with the preference order;
///  - Thm. 4.3 / 7.2: linear-size reductions for thread-uniform orders under
///    full commutativity.
///
//===----------------------------------------------------------------------===//

#include "reduction/Commutativity.h"
#include "reduction/PersistentSets.h"
#include "reduction/PreferenceOrder.h"
#include "reduction/SleepSet.h"

#include "automata/DfaOps.h"
#include "program/CfgBuilder.h"
#include "automata/Explore.h"
#include "reduction_helpers.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <set>

using namespace seqver;
using namespace seqver::red;
using namespace seqver::testing;
using seqver::prog::AcceptMode;
using seqver::automata::Dfa;
using seqver::automata::Letter;
using seqver::prog::ConcurrentProgram;
using seqver::smt::Term;

namespace {

//===----------------------------------------------------------------------===//
// Preference orders
//===----------------------------------------------------------------------===//

std::unique_ptr<ConcurrentProgram> twoThreadToy(smt::TermManager &TM) {
  // thread a: x := x+1; x := x+2;   thread b: y := y+1;
  prog::BuildResult R = prog::buildFromSource(
      "var int x; var int y;"
      "thread a { x := x + 1; x := x + 2; }"
      "thread b { y := y + 1; }",
      TM);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.Program);
}

TEST(PreferenceOrderTest, SequentialOrderIsThreadUniform) {
  smt::TermManager TM;
  auto P = twoThreadToy(TM);
  SequentialOrder Order(*P);
  // Letters 0,1 belong to thread a; 2 to thread b.
  EXPECT_TRUE(Order.less(0, 0, 2));
  EXPECT_TRUE(Order.less(0, 1, 2));
  EXPECT_FALSE(Order.less(0, 2, 0));
  EXPECT_TRUE(Order.less(0, 0, 1));
  EXPECT_FALSE(Order.isPositional());
  // Context is ignored.
  EXPECT_EQ(Order.advance(0, 2), 0u);
}

TEST(PreferenceOrderTest, RanksFormPermutation) {
  smt::TermManager TM;
  auto P = twoThreadToy(TM);
  for (auto &Order : makePortfolioOrders(*P)) {
    auto Ranks = Order->ranks(PreferenceOrder::InitialContext,
                              P->numLetters());
    std::vector<bool> Seen(P->numLetters(), false);
    for (uint32_t Rank : Ranks) {
      ASSERT_LT(Rank, P->numLetters());
      EXPECT_FALSE(Seen[Rank]) << Order->name();
      Seen[Rank] = true;
    }
  }
}

TEST(PreferenceOrderTest, LockstepRotates) {
  smt::TermManager TM;
  auto P = twoThreadToy(TM);
  LockstepOrder Order(*P);
  EXPECT_TRUE(Order.isPositional());
  // Initially thread 0 (letters 0,1) is preferred.
  EXPECT_TRUE(Order.less(PreferenceOrder::InitialContext, 0, 2));
  // After thread 0 moves (letter 0), thread 1 is preferred.
  auto Ctx = Order.advance(PreferenceOrder::InitialContext, 0);
  EXPECT_TRUE(Order.less(Ctx, 2, 0));
  EXPECT_TRUE(Order.less(Ctx, 2, 1));
  // After thread 1 moves, thread 0 is preferred again.
  auto Ctx2 = Order.advance(Ctx, 2);
  EXPECT_TRUE(Order.less(Ctx2, 0, 2));
}

TEST(PreferenceOrderTest, RandomOrdersDifferBySeed) {
  smt::TermManager TM;
  auto P = twoThreadToy(TM);
  RandomOrder O1(*P, 1), O2(*P, 2), O1Again(*P, 1);
  auto R1 = O1.ranks(0, P->numLetters());
  auto R2 = O2.ranks(0, P->numLetters());
  auto R1b = O1Again.ranks(0, P->numLetters());
  EXPECT_EQ(R1, R1b) << "same seed must give the same order";
  // With 3 letters the two seeds might coincide, but across portfolio
  // seeds at least one must differ from seq.
  (void)R2;
  EXPECT_EQ(O1.name(), "rand(1)");
}

TEST(PreferenceOrderTest, StrictTotalOrderProperties) {
  smt::TermManager TM;
  auto P = twoThreadToy(TM);
  for (auto &Order : makePortfolioOrders(*P)) {
    for (Letter A = 0; A < P->numLetters(); ++A)
      for (Letter B = 0; B < P->numLetters(); ++B) {
        if (A == B) {
          EXPECT_FALSE(Order->less(0, A, B)) << Order->name();
        } else {
          EXPECT_NE(Order->less(0, A, B), Order->less(0, B, A))
              << Order->name();
        }
      }
  }
}

//===----------------------------------------------------------------------===//
// Commutativity
//===----------------------------------------------------------------------===//

class CommutTest : public ::testing::Test {
protected:
  smt::TermManager TM;
  smt::QueryEngine QE{TM};

  std::unique_ptr<ConcurrentProgram> build(const std::string &Source) {
    prog::BuildResult R = prog::buildFromSource(Source, TM);
    EXPECT_TRUE(R.ok()) << R.Error;
    return std::move(R.Program);
  }
};

TEST_F(CommutTest, SameThreadNeverCommutes) {
  auto P = build("var int x; var int y;"
                 "thread a { x := 1; y := 2; }");
  CommutativityChecker C(*P, QE, CommutativityChecker::Mode::Full);
  EXPECT_FALSE(C.commutes(0, 1));
}

TEST_F(CommutTest, SyntacticDisjointness) {
  auto P = build("var int x; var int y;"
                 "thread a { x := x + 1; }"
                 "thread b { y := y + 1; }"
                 "thread c { x := 7; }");
  CommutativityChecker C(*P, QE, CommutativityChecker::Mode::Syntactic);
  EXPECT_TRUE(C.commutes(0, 1));  // disjoint vars
  EXPECT_FALSE(C.commutes(0, 2)); // both write x
}

TEST_F(CommutTest, SemanticFindsCommutingWrites) {
  // Two increments of the same variable commute semantically although their
  // footprints conflict.
  auto P = build("var int x;"
                 "thread a { x := x + 1; }"
                 "thread b { x := x + 2; }"
                 "thread c { x := 2 * x; }");
  CommutativityChecker Syn(*P, QE, CommutativityChecker::Mode::Syntactic);
  EXPECT_FALSE(Syn.commutes(0, 1));
  CommutativityChecker Sem(*P, QE, CommutativityChecker::Mode::Semantic);
  EXPECT_TRUE(Sem.commutes(0, 1));  // x+1 and x+2 commute
  EXPECT_FALSE(Sem.commutes(0, 2)); // x+1 and 2x do not
}

TEST_F(CommutTest, SemanticGuardInteraction) {
  // assume x >= 1 and x := x + 1: executing the increment first can enable
  // the assume, so guards differ: not commutative.
  auto P = build("var int x;"
                 "thread a { assume x >= 1; }"
                 "thread b { x := x + 1; }");
  CommutativityChecker Sem(*P, QE, CommutativityChecker::Mode::Semantic);
  EXPECT_FALSE(Sem.commutes(0, 1));
}

TEST_F(CommutTest, ConditionalCommutativityBluetoothStyle) {
  // enter (pendingIo += 1) vs a close path that tests pendingIo == 0 after
  // decrement: they commute under pendingIo > 1 (Sec. 2).
  auto P = build(R"(
    var int pendingIo := 1;
    var bool stoppingEvent;
    thread user { atomic { pendingIo := pendingIo + 1; } }
    thread stop {
      atomic {
        pendingIo := pendingIo - 1;
        if (pendingIo == 0) { stoppingEvent := true; }
      }
    }
  )");
  CommutativityChecker Sem(*P, QE, CommutativityChecker::Mode::Semantic);
  Term PendingIo = TM.lookupVar("pendingIo");
  smt::LinSum Sum = TM.sumOfVar(PendingIo);
  Term Gt1 = TM.mkGt(Sum, TM.sumOfConst(1));
  // Letters: 0 = user enter; 1,2 = the two close paths.
  // Unconditionally they do not commute (the branch depends on pendingIo).
  EXPECT_FALSE(Sem.commutes(0, 1));
  EXPECT_FALSE(Sem.commutes(0, 2));
  // Under pendingIo > 1 they do (Def. 7.3).
  EXPECT_TRUE(Sem.commutesUnder(Gt1, 0, 1));
  EXPECT_TRUE(Sem.commutesUnder(Gt1, 0, 2));
}

TEST_F(CommutTest, HavocCommutesWithDisjoint) {
  auto P = build("var int x; var int y;"
                 "thread a { havoc x; }"
                 "thread b { y := 3; }"
                 "thread c { havoc x; }");
  CommutativityChecker Sem(*P, QE, CommutativityChecker::Mode::Semantic);
  EXPECT_TRUE(Sem.commutes(0, 1));
  // Two havocs of the same variable do not commute under our canonical
  // symbol scheme (each occurrence keeps its own symbol; the final value
  // differs by order). Conservative and sound.
  EXPECT_FALSE(Sem.commutes(0, 2));
}

//===----------------------------------------------------------------------===//
// Sleep set automaton: basics and Thm. 5.3
//===----------------------------------------------------------------------===//

TEST(SleepSetTest, TwoIndependentLettersKeepOneOrder) {
  // A: two states accepting after ab or ba; letters 0, 1 commute.
  Dfa A(2);
  auto S0 = A.addState(false);
  auto S1 = A.addState(false);
  auto S2 = A.addState(false);
  auto S3 = A.addState(true);
  A.setInitial(S0);
  A.addTransition(S0, 0, S1);
  A.addTransition(S0, 1, S2);
  A.addTransition(S1, 1, S3);
  A.addTransition(S2, 0, S3);
  RankOrder Order({0, 1});
  Dfa R = sleepSetAutomaton(A, Order, [](Letter, Letter) { return true; });
  EXPECT_TRUE(R.accepts({0, 1}));
  EXPECT_FALSE(R.accepts({1, 0}));
}

TEST(SleepSetTest, NonCommutingKeepsBothOrders) {
  Dfa A(2);
  auto S0 = A.addState(false);
  auto S1 = A.addState(false);
  auto S2 = A.addState(false);
  auto S3 = A.addState(true);
  A.setInitial(S0);
  A.addTransition(S0, 0, S1);
  A.addTransition(S0, 1, S2);
  A.addTransition(S1, 1, S3);
  A.addTransition(S2, 0, S3);
  RankOrder Order({0, 1});
  Dfa R = sleepSetAutomaton(A, Order, [](Letter, Letter) { return false; });
  EXPECT_TRUE(R.accepts({0, 1}));
  EXPECT_TRUE(R.accepts({1, 0}));
}

/// Thm. 5.3 property sweep on random concurrent programs (closed languages):
/// L(S(A)) equals the brute-force set of lex-minimal representatives, and is
/// language-minimal (no two accepted words equivalent).
class SleepSetTheorem : public ::testing::TestWithParam<int> {};

TEST_P(SleepSetTheorem, MatchesBruteForceReduction) {
  smt::TermManager TM;
  smt::QueryEngine QE(TM);
  Rng R(static_cast<uint64_t>(GetParam()) * 977 + 5);
  auto P = makeRandomProgram(TM, R, 2 + static_cast<int>(R.below(2)),
                             /*MaxActionsPerThread=*/3, /*VarPoolSize=*/3,
                             /*Acyclic=*/false, /*WithAssert=*/false);
  CommutativityChecker Commut(*P, QE,
                              CommutativityChecker::Mode::Syntactic);
  auto CommutFn = [&Commut](Letter A, Letter B) {
    return Commut.commutes(A, B);
  };

  Dfa Product = P->explicitProduct(AcceptMode::AllExit);
  // Random non-positional order over letters.
  std::vector<uint32_t> Ranks(P->numLetters());
  for (uint32_t I = 0; I < Ranks.size(); ++I)
    Ranks[I] = I;
  {
    std::vector<uint32_t> Shuffled = Ranks;
    R.shuffle(Shuffled);
    Ranks = Shuffled;
  }
  RankOrder Order(Ranks);

  Dfa Reduced = sleepSetAutomaton(Product, Order, CommutFn);

  const size_t MaxLen = 7;
  auto Language = automata::enumerateLanguage(Product, MaxLen);
  auto Expected = bruteForceReduction(Language, CommutFn, Order);
  auto Actual = automata::enumerateLanguage(Reduced, MaxLen);
  EXPECT_EQ(Actual, Expected);

  // Language-minimality: distinct accepted words are inequivalent.
  for (auto It1 = Actual.begin(); It1 != Actual.end(); ++It1)
    for (auto It2 = std::next(It1); It2 != Actual.end(); ++It2)
      EXPECT_FALSE(areEquivalent(*It1, *It2, CommutFn));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SleepSetTheorem, ::testing::Range(0, 40));

//===----------------------------------------------------------------------===//
// Lockstep reduction (Example 4.6 / Fig. 2)
//===----------------------------------------------------------------------===//

/// Builds the Fig. 2a program: two threads, each a loop (a_i b_i)* followed
/// by c_i, with all cross-thread statements commuting (disjoint variables).
std::unique_ptr<ConcurrentProgram> makeFig2Program(smt::TermManager &TM) {
  auto P = std::make_unique<ConcurrentProgram>(TM);
  for (int T = 0; T < 2; ++T) {
    prog::ThreadCfg Cfg;
    Cfg.Name = "t" + std::to_string(T + 1);
    prog::Location L1 = Cfg.addLocation();
    prog::Location L2 = Cfg.addLocation();
    prog::Location L3 = Cfg.addLocation();
    Cfg.InitialLoc = L1;
    Term V = TM.mkVar("fig2v" + std::to_string(T), smt::Sort::Int);
    auto MakeAction = [&](const char *Name) {
      prog::Action A;
      A.ThreadId = T;
      A.Name = std::string(Name) + std::to_string(T + 1);
      prog::Prim Pr;
      Pr.K = prog::Prim::Kind::AssignInt;
      Pr.Var = V;
      smt::LinSum Sum = TM.sumOfVar(V);
      Sum.Constant += 1;
      Pr.IntValue = Sum;
      A.Prims.push_back(Pr);
      return A;
    };
    Cfg.addEdge(L1, P->addAction(MakeAction("a")), L2);
    Cfg.addEdge(L2, P->addAction(MakeAction("b")), L1);
    Cfg.addEdge(L1, P->addAction(MakeAction("c")), L3);
    P->addThread(std::move(Cfg));
  }
  return P;
}

TEST(LockstepTest, Fig2ReductionApproximatesLockstep) {
  smt::TermManager TM;
  smt::QueryEngine QE(TM);
  auto P = makeFig2Program(TM);
  // Letters: 0=a1, 1=b1, 2=c1, 3=a2, 4=b2, 5=c2.
  CommutativityChecker Commut(*P, QE, CommutativityChecker::Mode::Syntactic);
  LockstepOrder Order(*P);
  Dfa Product = P->explicitProduct(AcceptMode::AllExit);
  Dfa Reduced = sleepSetAutomaton(
      Product, Order,
      [&Commut](Letter A, Letter B) { return Commut.commutes(A, B); });

  // The lockstep word is accepted; the sequential word is not (Ex. 4.6).
  EXPECT_TRUE(Reduced.accepts({0, 3, 1, 4, 2, 5})); // a1 a2 b1 b2 c1 c2
  EXPECT_FALSE(Reduced.accepts({0, 1, 2, 3, 4, 5})); // a1 b1 c1 a2 b2 c2
  // Two loop rounds in lockstep are also accepted.
  EXPECT_TRUE(Reduced.accepts({0, 3, 1, 4, 0, 3, 1, 4, 2, 5}));
  // The reduction is sound: still one representative per class.
  auto CommutFn = [&Commut](Letter A, Letter B) {
    return Commut.commutes(A, B);
  };
  auto Language = automata::enumerateLanguage(Product, 6);
  auto Reduction = automata::enumerateLanguage(Reduced, 6);
  for (const Word &W : Language) {
    bool Covered = false;
    for (const Word &V : Reduction)
      if (areEquivalent(W, V, CommutFn))
        Covered = true;
    EXPECT_TRUE(Covered);
  }
}

TEST(LockstepTest, SequentialOrderPrefersThreadOrder) {
  smt::TermManager TM;
  smt::QueryEngine QE(TM);
  auto P = makeFig2Program(TM);
  CommutativityChecker Commut(*P, QE, CommutativityChecker::Mode::Syntactic);
  SequentialOrder Order(*P);
  Dfa Product = P->explicitProduct(AcceptMode::AllExit);
  Dfa Reduced = sleepSetAutomaton(
      Product, Order,
      [&Commut](Letter A, Letter B) { return Commut.commutes(A, B); });
  EXPECT_TRUE(Reduced.accepts({0, 1, 2, 3, 4, 5}));  // sequential
  EXPECT_FALSE(Reduced.accepts({0, 3, 1, 4, 2, 5})); // lockstep
}

//===----------------------------------------------------------------------===//
// pi-reduction and Algorithm 1
//===----------------------------------------------------------------------===//

TEST(PiReduceTest, DropsEdgesOutsidePi) {
  Dfa A(2);
  auto S0 = A.addState(false);
  auto S1 = A.addState(true);
  A.setInitial(S0);
  A.addTransition(S0, 0, S1);
  A.addTransition(S0, 1, S1);
  Dfa R = piReduce(A, [](automata::State S) {
    return S == 0 ? std::vector<Letter>{0} : std::vector<Letter>{};
  });
  EXPECT_TRUE(R.accepts({0}));
  EXPECT_FALSE(R.accepts({1}));
}

/// Prop. 7.1 property sweep: Algorithm 1 returns weakly persistent
/// membranes compatible with the preference order, on acyclic programs
/// where full language enumeration is possible.
class Algorithm1Theorem : public ::testing::TestWithParam<int> {};

TEST_P(Algorithm1Theorem, OutputsWeaklyPersistentMembranes) {
  smt::TermManager TM;
  smt::QueryEngine QE(TM);
  Rng R(static_cast<uint64_t>(GetParam()) * 409 + 11);
  auto P = makeRandomProgram(TM, R, 2 + static_cast<int>(R.below(2)),
                             /*MaxActionsPerThread=*/3, /*VarPoolSize=*/2,
                             /*Acyclic=*/true, /*WithAssert=*/false);
  CommutativityChecker Commut(*P, QE,
                              CommutativityChecker::Mode::Syntactic);
  SequentialOrder Order(*P);
  PersistentSetComputer Persistent(*P, Commut, &Order);

  // Enumerate all product states via the explicit automaton.
  struct Impl {
    using StateType = prog::ProductState;
    const ConcurrentProgram &P;
    StateType initialState() { return P.initialProductState(); }
    bool isAccepting(const StateType &S) { return P.isAllExitState(S); }
    std::vector<std::pair<Letter, StateType>> successors(const StateType &S) {
      return P.successors(S);
    }
  } ProductImpl{*P};
  auto Mat = automata::materialize(ProductImpl, P->numLetters());

  for (automata::State Q = 0; Q < Mat.Automaton.numStates(); ++Q) {
    const prog::ProductState &S = Mat.States[Q];
    const Bitset &M =
        Persistent.compute(Q, S, PreferenceOrder::InitialContext);

    // Acyclic: full language from Q is finite; enumerate generously.
    auto Accepted = automata::enumerateLanguage(
        [&] {
          Dfa Copy = Mat.Automaton;
          Copy.setInitial(Q);
          return Copy;
        }(),
        12);

    for (const Word &W : Accepted) {
      if (W.empty())
        continue;
      // Membrane: some letter of W is in M.
      bool HitsMembrane = false;
      for (Letter L : W)
        if (M.test(L))
          HitsMembrane = true;
      EXPECT_TRUE(HitsMembrane) << "membrane violated";

      // Weak persistence (Def. 6.1).
      M.forEach([&](size_t B) {
        for (size_t I = 0; I < W.size(); ++I) {
          if (!Commut.commutes(W[I], static_cast<Letter>(B))) {
            bool EarlierInM = false;
            for (size_t J = 0; J <= I; ++J)
              if (M.test(W[J]))
                EarlierInM = true;
            EXPECT_TRUE(EarlierInM) << "weak persistence violated";
            break;
          }
        }
      });
    }

    // Compatibility (Sec. 6.2): selected letters are preferred over
    // non-selected enabled letters.
    std::vector<Letter> Enabled;
    for (const auto &[L, Next] : P->successors(S)) {
      (void)Next;
      Enabled.push_back(L);
    }
    for (Letter A : Enabled)
      for (Letter B : Enabled) {
        if (M.test(A) && !M.test(B)) {
          EXPECT_TRUE(Order.less(PreferenceOrder::InitialContext, A, B))
              << "compatibility violated";
        }
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Algorithm1Theorem, ::testing::Range(0, 40));

//===----------------------------------------------------------------------===//
// Combined reduction (Thm. 6.6) and size bounds (Thm. 4.3 / 7.2)
//===----------------------------------------------------------------------===//

/// Thm. 6.6 sweep: the combined construction recognizes the same language
/// as the sleep-set-only construction, with at most as many states.
class CombinedTheorem : public ::testing::TestWithParam<int> {};

TEST_P(CombinedTheorem, PersistentSetsPreserveLanguage) {
  smt::TermManager TM;
  smt::QueryEngine QE(TM);
  Rng R(static_cast<uint64_t>(GetParam()) * 733 + 23);
  auto P = makeRandomProgram(TM, R, 2 + static_cast<int>(R.below(2)),
                             /*MaxActionsPerThread=*/3, /*VarPoolSize=*/3,
                             /*Acyclic=*/false, /*WithAssert=*/false);
  CommutativityChecker Commut(*P, QE,
                              CommutativityChecker::Mode::Syntactic);
  SequentialOrder Order(*P);

  ReductionConfig SleepOnly;
  SleepOnly.UseSleepSets = true;
  SleepOnly.UsePersistentSets = false;
  SleepOnly.Mode = prog::AcceptMode::AllExit;
  ReductionConfig Combined = SleepOnly;
  Combined.UsePersistentSets = true;

  Dfa SleepDfa = buildReduction(*P, &Order, Commut, SleepOnly).Automaton;
  Dfa CombinedDfa = buildReduction(*P, &Order, Commut, Combined).Automaton;

  EXPECT_TRUE(automata::isEquivalent(SleepDfa, CombinedDfa));
  EXPECT_LE(CombinedDfa.numReachableStates(), SleepDfa.numReachableStates());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CombinedTheorem, ::testing::Range(0, 40));

/// Thm. 4.3 / 7.2: for fully-independent threads under the thread-uniform
/// order, the combined reduction has O(size(P)) states while the full
/// product is exponential.
TEST(SizeBoundTest, LinearReductionForIndependentThreads) {
  smt::TermManager TM;
  smt::QueryEngine QE(TM);
  for (int NumThreads = 2; NumThreads <= 5; ++NumThreads) {
    auto P = std::make_unique<ConcurrentProgram>(TM);
    const int ActionsPerThread = 3;
    for (int T = 0; T < NumThreads; ++T) {
      prog::ThreadCfg Cfg;
      Cfg.Name = "t" + std::to_string(T);
      prog::Location Prev = Cfg.addLocation();
      Cfg.InitialLoc = Prev;
      Term V = TM.mkVar("ind" + std::to_string(NumThreads) + "_" +
                            std::to_string(T),
                        smt::Sort::Int);
      for (int K = 0; K < ActionsPerThread; ++K) {
        prog::Action A;
        A.ThreadId = T;
        A.Name = Cfg.Name + "#" + std::to_string(K);
        prog::Prim Pr;
        Pr.K = prog::Prim::Kind::AssignInt;
        Pr.Var = V;
        smt::LinSum Sum = TM.sumOfVar(V);
        Sum.Constant += 1;
        Pr.IntValue = Sum;
        A.Prims.push_back(Pr);
        prog::Location Next = Cfg.addLocation();
        Cfg.addEdge(Prev, P->addAction(std::move(A)), Next);
        Prev = Next;
      }
      P->addThread(std::move(Cfg));
    }
    CommutativityChecker Commut(*P, QE,
                                CommutativityChecker::Mode::Syntactic);
    SequentialOrder Order(*P);
    ReductionConfig Config;
    Config.Mode = prog::AcceptMode::AllExit;
    Dfa Reduced = buildReduction(*P, &Order, Commut, Config).Automaton;
    // The reduction is the sequential composition: a single chain.
    EXPECT_EQ(Reduced.numReachableStates(),
              static_cast<uint32_t>(NumThreads * ActionsPerThread + 1));
    // The full product is exponential: (ActionsPerThread+1)^NumThreads.
    Dfa Product = P->explicitProduct(AcceptMode::AllExit);
    uint32_t Expected = 1;
    for (int T = 0; T < NumThreads; ++T)
      Expected *= ActionsPerThread + 1;
    EXPECT_EQ(Product.numStates(), Expected);
  }
}

TEST(SizeBoundTest, ConflictRelationOnHandmadeProgram) {
  smt::TermManager TM;
  smt::QueryEngine QE(TM);
  prog::BuildResult R = prog::buildFromSource(
      "var int x; var int y;"
      "thread a { x := x + 1; y := 1; }"
      "thread b { y := 2; }",
      TM);
  ASSERT_TRUE(R.ok()) << R.Error;
  auto &P = *R.Program;
  CommutativityChecker Commut(P, QE, CommutativityChecker::Mode::Syntactic);
  PersistentSetComputer Persistent(P, Commut, nullptr);
  // Thread a at location 0 (next action writes x only): no conflict with
  // thread b anywhere.
  EXPECT_FALSE(Persistent.locationsConflict(0, 0, 1, 0));
  // Thread a at location 1 (next action writes y): conflicts with thread b
  // at its initial location (which writes y).
  EXPECT_TRUE(Persistent.locationsConflict(0, 1, 1, 0));
  // Thread b at its initial location conflicts with thread a at location 0:
  // thread a can still reach the y := 1 action.
  EXPECT_TRUE(Persistent.locationsConflict(1, 0, 0, 0));
  // After thread b has finished (location 1), its enabled set is empty: no
  // conflicts originate there.
  EXPECT_FALSE(Persistent.locationsConflict(1, 1, 0, 0));
}

/// Algorithm 1's conflict relation over a solver-free checker: increments
/// of x have conflicting footprints, but their obligations fold statically,
/// so the threads do not conflict; two stores to y do.
TEST(SizeBoundTest, ConflictRelationUsesTheStaticTier) {
  smt::TermManager TM;
  smt::QueryEngine QE(TM);
  prog::BuildResult R = prog::buildFromSource(
      "var int x; var int y;"
      "thread a { x := x + 1; }"
      "thread b { x := x + 2; }"
      "thread c { y := 1; }"
      "thread d { y := 2; }",
      TM);
  ASSERT_TRUE(R.ok()) << R.Error;
  auto &P = *R.Program;
  ASSERT_TRUE(P.action(0).footprintConflictsWith(P.action(1)));
  CommutativityChecker Commut(P, QE, CommutativityChecker::Mode::Static);
  PersistentSetComputer Persistent(P, Commut, nullptr);
  EXPECT_FALSE(Persistent.locationsConflict(0, 0, 1, 0));
  EXPECT_FALSE(Persistent.locationsConflict(1, 0, 0, 0));
  EXPECT_TRUE(Persistent.locationsConflict(2, 0, 3, 0));
  EXPECT_TRUE(Persistent.locationsConflict(3, 0, 2, 0));
  EXPECT_FALSE(Persistent.locationsConflict(0, 0, 2, 0));
}

//===----------------------------------------------------------------------===//
// Algorithm 1 membranes against a reference implementation
//===----------------------------------------------------------------------===//

/// The straightforward Algorithm 1 miss path: per-call containers, a
/// recursive Kosaraju DFS and deque worklists. PersistentSetComputer
/// reuses its buffers and walks an explicit stack instead; it must return
/// the same membrane bit for bit, including the component tie-break.
Bitset referenceMembrane(const ConcurrentProgram &P,
                         const PersistentSetComputer &Persistent,
                         const PreferenceOrder *Order,
                         const prog::ProductState &S,
                         PreferenceOrder::Context Ctx) {
  int N = P.numThreads();
  std::vector<std::vector<Letter>> Enabled(static_cast<size_t>(N));
  std::vector<bool> Active(static_cast<size_t>(N), false);
  std::vector<bool> HasAssert(static_cast<size_t>(N), false);
  for (int T = 0; T < N; ++T) {
    for (const auto &[L, To] :
         P.thread(T).Edges[S[static_cast<size_t>(T)]]) {
      (void)To;
      Enabled[static_cast<size_t>(T)].push_back(L);
    }
    Active[static_cast<size_t>(T)] =
        !Enabled[static_cast<size_t>(T)].empty();
    HasAssert[static_cast<size_t>(T)] = P.thread(T).containsAssert();
  }

  std::vector<std::vector<int>> Adj(static_cast<size_t>(N));
  for (int I = 0; I < N; ++I) {
    if (!Active[static_cast<size_t>(I)])
      continue;
    for (int J = 0; J < N; ++J) {
      if (I == J || !Active[static_cast<size_t>(J)])
        continue;
      bool Edge = Persistent.locationsConflict(
          I, S[static_cast<size_t>(I)], J, S[static_cast<size_t>(J)]);
      if (!Edge && Order) {
        for (Letter B : Enabled[static_cast<size_t>(I)]) {
          for (Letter A : Enabled[static_cast<size_t>(J)]) {
            if (Order->less(Ctx, A, B)) {
              Edge = true;
              break;
            }
          }
          if (Edge)
            break;
        }
      }
      if (Edge)
        Adj[static_cast<size_t>(I)].push_back(J);
    }
  }

  std::vector<int> FinishOrder;
  std::vector<bool> Visited(static_cast<size_t>(N), false);
  std::function<void(int)> Dfs1 = [&](int U) {
    Visited[static_cast<size_t>(U)] = true;
    for (int V : Adj[static_cast<size_t>(U)])
      if (!Visited[static_cast<size_t>(V)])
        Dfs1(V);
    FinishOrder.push_back(U);
  };
  for (int T = 0; T < N; ++T)
    if (Active[static_cast<size_t>(T)] && !Visited[static_cast<size_t>(T)])
      Dfs1(T);

  std::vector<std::vector<int>> RevAdj(static_cast<size_t>(N));
  for (int U = 0; U < N; ++U)
    for (int V : Adj[static_cast<size_t>(U)])
      RevAdj[static_cast<size_t>(V)].push_back(U);

  std::vector<int> ComponentOf(static_cast<size_t>(N), -1);
  int NumComponents = 0;
  for (auto RIt = FinishOrder.rbegin(); RIt != FinishOrder.rend(); ++RIt) {
    if (ComponentOf[static_cast<size_t>(*RIt)] != -1)
      continue;
    int Comp = NumComponents++;
    std::deque<int> Worklist = {*RIt};
    ComponentOf[static_cast<size_t>(*RIt)] = Comp;
    while (!Worklist.empty()) {
      int U = Worklist.front();
      Worklist.pop_front();
      for (int V : RevAdj[static_cast<size_t>(U)])
        if (ComponentOf[static_cast<size_t>(V)] == -1) {
          ComponentOf[static_cast<size_t>(V)] = Comp;
          Worklist.push_back(V);
        }
    }
  }

  std::vector<bool> HasOutgoing(static_cast<size_t>(NumComponents), false);
  for (int U = 0; U < N; ++U)
    for (int V : Adj[static_cast<size_t>(U)])
      if (ComponentOf[static_cast<size_t>(U)] !=
          ComponentOf[static_cast<size_t>(V)])
        HasOutgoing[static_cast<size_t>(
            ComponentOf[static_cast<size_t>(U)])] = true;

  int Best = -1;
  size_t BestSize = SIZE_MAX;
  for (int Comp = 0; Comp < NumComponents; ++Comp) {
    if (HasOutgoing[static_cast<size_t>(Comp)])
      continue;
    size_t Size = 0;
    for (int T = 0; T < N; ++T)
      if (ComponentOf[static_cast<size_t>(T)] == Comp)
        Size += Enabled[static_cast<size_t>(T)].size();
    if (Size < BestSize) {
      BestSize = Size;
      Best = Comp;
    }
  }

  std::vector<bool> Selected(static_cast<size_t>(N), false);
  std::deque<int> Worklist;
  auto Select = [&](int T) {
    if (!Selected[static_cast<size_t>(T)]) {
      Selected[static_cast<size_t>(T)] = true;
      Worklist.push_back(T);
    }
  };
  for (int T = 0; T < N; ++T) {
    if (!Active[static_cast<size_t>(T)])
      continue;
    if (Best != -1 && ComponentOf[static_cast<size_t>(T)] == Best)
      Select(T);
    if (HasAssert[static_cast<size_t>(T)])
      Select(T);
  }
  while (!Worklist.empty()) {
    int U = Worklist.front();
    Worklist.pop_front();
    for (int V : Adj[static_cast<size_t>(U)])
      Select(V);
  }

  Bitset M(P.numLetters());
  for (int T = 0; T < N; ++T)
    if (Selected[static_cast<size_t>(T)])
      for (Letter L : Enabled[static_cast<size_t>(T)])
        M.set(L);
  return M;
}

/// Every tier-1 program whose interleaving product has at most 20,000
/// states, under seq, lockstep and no order: each reachable (state,
/// context) pair gets the reference membrane, also when compute() visits
/// the pairs in reverse (the reused buffers carry nothing between calls),
/// and enabledEdges() lists exactly the moves successors() takes.
TEST(PersistentSetTest, MembraneMatchesReference) {
  constexpr uint32_t kMaxProductStates = 20000;
  size_t Total = 0, Compared = 0;
  for (const auto &W : workloads::tier1Suite()) {
    ++Total;
    smt::TermManager TM;
    prog::BuildResult B = prog::buildFromSource(W.Source, TM);
    ASSERT_TRUE(B.ok()) << W.Name << ": " << B.Error;
    const ConcurrentProgram &P = *B.Program;
    struct ProductImpl {
      using StateType = prog::ProductState;
      const ConcurrentProgram &P;
      StateType initialState() { return P.initialProductState(); }
      bool isAccepting(const StateType &S) { return P.isErrorState(S); }
      std::vector<std::pair<Letter, StateType>>
      successors(const StateType &S) {
        return P.successors(S);
      }
    } Impl{P};
    bool Overflow = false;
    auto Mat = automata::materialize(Impl, P.numLetters(), kMaxProductStates,
                                     &Overflow);
    if (Overflow)
      continue;
    ++Compared;

    std::vector<prog::Edge> Edges;
    for (const prog::ProductState &S : Mat.States) {
      P.enabledEdges(S, Edges);
      auto Succs = P.successors(S);
      ASSERT_EQ(Edges.size(), Succs.size()) << W.Name;
      for (size_t I = 0; I < Edges.size(); ++I) {
        prog::ProductState Next = S;
        Next[static_cast<size_t>(Edges[I].Thread)] = Edges[I].Target;
        EXPECT_EQ(Edges[I].Letter, Succs[I].first) << W.Name;
        EXPECT_EQ(Next, Succs[I].second) << W.Name;
        EXPECT_EQ(P.action(Edges[I].Letter).ThreadId, Edges[I].Thread)
            << W.Name;
      }
    }

    smt::QueryEngine QE(TM);
    CommutativityChecker Commut(P, QE, CommutativityChecker::Mode::Static);
    SequentialOrder Seq(P);
    LockstepOrder Lockstep(P);
    for (const PreferenceOrder *Order :
         {static_cast<const PreferenceOrder *>(&Seq),
          static_cast<const PreferenceOrder *>(&Lockstep),
          static_cast<const PreferenceOrder *>(nullptr)}) {
      std::string What =
          W.Name + "/" + (Order ? Order->name() : std::string("none"));
      // Reachable (state, context) pairs of the product under Order.
      std::vector<std::pair<automata::State, PreferenceOrder::Context>>
          Pairs = {{Mat.Automaton.initial(), PreferenceOrder::InitialContext}};
      std::set<std::pair<automata::State, PreferenceOrder::Context>> Seen(
          Pairs.begin(), Pairs.end());
      for (size_t Head = 0; Head < Pairs.size(); ++Head) {
        auto [Q, Ctx] = Pairs[Head];
        for (const auto &[L, To] : Mat.Automaton.transitionsFrom(Q)) {
          PreferenceOrder::Context Next =
              Order && Order->isPositional() ? Order->advance(Ctx, L)
                                             : PreferenceOrder::InitialContext;
          if (Seen.insert({To, Next}).second)
            Pairs.push_back({To, Next});
        }
      }

      PersistentSetComputer Forward(P, Commut, Order);
      std::vector<Bitset> Expected;
      for (const auto &[Q, Ctx] : Pairs) {
        Expected.push_back(
            referenceMembrane(P, Forward, Order, Mat.States[Q], Ctx));
        EXPECT_EQ(Forward.compute(Q, Mat.States[Q], Ctx), Expected.back())
            << What << " state " << Q << " ctx " << Ctx;
      }
      PersistentSetComputer Backward(P, Commut, Order);
      for (size_t I = Pairs.size(); I-- > 0;) {
        auto [Q, Ctx] = Pairs[I];
        EXPECT_EQ(Backward.compute(Q, Mat.States[Q], Ctx), Expected[I])
            << What << " reverse, state " << Q << " ctx " << Ctx;
      }
    }
  }
  // The bound skips only the few largest products.
  EXPECT_GE(Compared * 10, Total * 9) << Compared << " of " << Total;
}

} // namespace
