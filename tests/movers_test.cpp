//===- tests/movers_test.cpp - Mover classification & fusion tests --------===//
///
/// \file
/// Unit tests for the Lipton mover classification (analysis/Movers.h) and the
/// transaction fusion transform (analysis/Fusion.h): lock-protected accesses
/// classify as both-movers, acquires/releases get the classic right/left
/// asymmetry, invariant-dischargeable conflicts yield conditional movers,
/// fusion respects assert and loop-head barriers and never swallows a
/// blocking edge post-commit, and fused programs keep exactly the error
/// reachability of the unfused original on the explicit product.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/Fusion.h"
#include "analysis/Movers.h"
#include "program/CfgBuilder.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <memory>

using namespace seqver;
using namespace seqver::analysis;
using seqver::automata::Letter;
using seqver::prog::Location;

namespace {

std::unique_ptr<prog::ConcurrentProgram> build(const std::string &Source,
                                               smt::TermManager &TM) {
  prog::BuildResult B = prog::buildFromSource(Source, TM);
  EXPECT_TRUE(B.ok()) << B.Error;
  return std::move(B.Program);
}

/// Classification of P against the full invariant-source registry.
struct Classified {
  std::unique_ptr<ProgramAnalysis> PA;
  std::vector<const InvariantSource *> Sources;
  std::unique_ptr<MoverAnalysis> Movers;

  explicit Classified(const prog::ConcurrentProgram &P) {
    PA = std::make_unique<ProgramAnalysis>(P);
    Sources = PA->invariantSources();
    Movers =
        std::make_unique<MoverAnalysis>(P, PA->locks(), PA->accesses(),
                                        Sources);
  }
};

/// Edges of P targeting an error location, as (thread, from, letter).
std::vector<std::tuple<int, Location, Letter>>
errorEdges(const prog::ConcurrentProgram &P) {
  std::vector<std::tuple<int, Location, Letter>> Out;
  for (int T = 0; T < P.numThreads(); ++T) {
    const prog::ThreadCfg &Cfg = P.thread(T);
    for (Location L = 0; L < Cfg.numLocations(); ++L)
      for (const auto &[EL, To] : Cfg.Edges[L])
        if (Cfg.IsErrorLoc[To])
          Out.push_back({T, L, EL});
  }
  return Out;
}

const char *TwoWorkerMutex =
    "var bool locked := false;\n"
    "var int c := 0;\n"
    "thread a {\n"
    "  atomic { assume !locked; locked := true; }\n"
    "  c := c + 1;\n"
    "  locked := false;\n"
    "}\n"
    "thread b {\n"
    "  atomic { assume !locked; locked := true; }\n"
    "  c := c + 1;\n"
    "  locked := false;\n"
    "}\n";

//===----------------------------------------------------------------------===//
// Mover lattice
//===----------------------------------------------------------------------===//

TEST(MoverLattice, MeetTable) {
  using MC = MoverClass;
  EXPECT_EQ(moverMeet(MC::Both, MC::Both), MC::Both);
  EXPECT_EQ(moverMeet(MC::Both, MC::Right), MC::Right);
  EXPECT_EQ(moverMeet(MC::Both, MC::Left), MC::Left);
  EXPECT_EQ(moverMeet(MC::Both, MC::None), MC::None);
  EXPECT_EQ(moverMeet(MC::Right, MC::Right), MC::Right);
  EXPECT_EQ(moverMeet(MC::Left, MC::Left), MC::Left);
  // Right and Left are incomparable; their meet is None.
  EXPECT_EQ(moverMeet(MC::Right, MC::Left), MC::None);
  EXPECT_EQ(moverMeet(MC::Left, MC::Right), MC::None);
  EXPECT_EQ(moverMeet(MC::None, MC::Both), MC::None);
}

//===----------------------------------------------------------------------===//
// Classification
//===----------------------------------------------------------------------===//

TEST(Movers, LockProtectedAccessesAreBothMovers) {
  smt::TermManager TM;
  auto P = build(TwoWorkerMutex, TM);
  Classified C(*P);
  const LockInfo &Locks = C.PA->locks().locks();
  ASSERT_EQ(Locks.Locks.size(), 1u);

  smt::Term CVar = TM.lookupVar("c");
  for (Letter L = 0; L < P->numLetters(); ++L) {
    const prog::Action &A = P->action(L);
    if (!Locks.Acquires[L].empty()) {
      // Acquire against the foreign release: right-mover (classic Lipton).
      EXPECT_EQ(C.Movers->classOf(L), MoverClass::Right) << A.Name;
    } else if (!Locks.Releases[L].empty()) {
      EXPECT_EQ(C.Movers->classOf(L), MoverClass::Left) << A.Name;
    } else if (A.writesVar(CVar)) {
      // Both increments must-hold the lock: their conflict is vacuous.
      EXPECT_EQ(C.Movers->classOf(L), MoverClass::Both) << A.Name;
    }
  }
  EXPECT_GE(C.Movers->pairStats().PairsAcqRel, 1u);
  // acquire-vs-acquire and increment-vs-increment (if not already settled
  // statically) discharge through lock vacuity.
  EXPECT_GE(C.Movers->pairStats().PairsLockVacuous, 1u);
  EXPECT_EQ(C.Movers->pairStats().PairsDemoted, 0u);
}

TEST(Movers, UnprotectedConflictDemotesToNonMover) {
  smt::TermManager TM;
  auto P = build("var int y := 0;\n"
                 "thread a { y := 1; }\n"
                 "thread b { y := y + 2; }\n",
                 TM);
  Classified C(*P);
  // y := 1 vs y := y + 2 do not commute and share no lock: both pinned.
  EXPECT_EQ(C.Movers->numNone(), 2u);
  EXPECT_GE(C.Movers->pairStats().PairsDemoted, 1u);
}

TEST(Movers, DeadEdgeConflictIsConditionalMover) {
  smt::TermManager TM;
  // x is never written, so `assume x > 5` is statically dead and a's write
  // of y sits on an unreachable location: its conflicts with b are vacuous
  // under the interval invariants — a conditional both-mover.
  auto P = build("var int x := 0;\n"
                 "var int y := 0;\n"
                 "thread a { assume x > 5; y := 1; }\n"
                 "thread b { y := 2; }\n",
                 TM);
  Classified C(*P);
  smt::Term YVar = TM.lookupVar("y");
  for (Letter L = 0; L < P->numLetters(); ++L) {
    const prog::Action &A = P->action(L);
    if (A.ThreadId == 0 && A.writesVar(YVar)) {
      EXPECT_EQ(C.Movers->classOf(L), MoverClass::Both) << A.Name;
      EXPECT_TRUE(C.Movers->info(L).Conditional) << A.Name;
      EXPECT_EQ(C.Movers->info(L).Source, "interval") << A.Name;
    }
  }
  EXPECT_GE(C.Movers->pairStats().PairsDeadEdge, 1u);
  EXPECT_GE(C.Movers->numConditional(), 1u);
}

TEST(Movers, InvariantConditionalMoversOnBluetooth) {
  smt::TermManager TM;
  auto P = build(workloads::bluetoothSource(2, false), TM);
  Classified C(*P);
  // The bluetooth flags discharge commutativity obligations only under the
  // relational location invariants: some letter must be conditional.
  EXPECT_GE(C.Movers->numConditional(), 1u);
  bool NamedSource = false;
  for (Letter L = 0; L < P->numLetters(); ++L)
    if (C.Movers->info(L).Conditional &&
        !C.Movers->info(L).Source.empty())
      NamedSource = true;
  EXPECT_TRUE(NamedSource);
  // The report names every letter once.
  std::string Report = C.Movers->report();
  for (Letter L = 0; L < P->numLetters(); ++L)
    EXPECT_NE(Report.find(P->action(L).Name), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Fusion
//===----------------------------------------------------------------------===//

TEST(Fusion, FusesLinearBothMoverChain) {
  smt::TermManager TM;
  auto P = build("var int x := 0;\n"
                 "thread t { x := 1; x := 2; x := 3; }\n",
                 TM);
  FusionStats FS = fuseTransactions(*P);
  EXPECT_EQ(FS.Transactions, 1u);
  EXPECT_EQ(FS.FusedEdges, 3u);
  EXPECT_EQ(FS.AlphabetBefore, 3u);
  EXPECT_EQ(FS.AlphabetAfter, 1u);
  EXPECT_EQ(FS.StatesAfter, 2u); // entry and exit survive
  // The transaction concatenates all three assignments.
  Letter Fused = P->numLetters() - 1;
  EXPECT_EQ(P->action(Fused).Prims.size(), 3u);
}

TEST(Fusion, AssertBranchIsBarrier) {
  smt::TermManager TM;
  auto P = build("var int x := 0;\n"
                 "thread t { x := 1; assert x == 2; x := 3; }\n",
                 TM);
  auto ErrBefore = errorEdges(*P);
  ASSERT_EQ(ErrBefore.size(), 1u);
  bool UnfusedBug = !P->explicitProduct(prog::AcceptMode::Error).isEmpty();
  fuseTransactions(*P);
  // The assert-fail edge survives untouched and the violation is still
  // reachable in the fused product.
  EXPECT_EQ(errorEdges(*P), ErrBefore);
  EXPECT_TRUE(UnfusedBug);
  EXPECT_FALSE(P->explicitProduct(prog::AcceptMode::Error).isEmpty());
}

TEST(Fusion, LoopHeadIsBarrier) {
  smt::TermManager TM;
  auto P = build("var int x := 0;\nvar int y := 0;\n"
                 "thread t { while (*) { x := x + 1; } y := 1; }\n",
                 TM);
  // Find the loop head: the location with two outgoing edges.
  const prog::ThreadCfg &Cfg = P->thread(0);
  Location Head = Cfg.numLocations();
  for (Location L = 0; L < Cfg.numLocations(); ++L)
    if (Cfg.Edges[L].size() == 2)
      Head = L;
  ASSERT_NE(Head, Cfg.numLocations());
  size_t HeadOut = Cfg.Edges[Head].size();
  fuseTransactions(*P);
  // The head keeps both its branch edges: nothing fused across it.
  EXPECT_EQ(P->thread(0).Edges[Head].size(), HeadOut);
}

TEST(Fusion, BlockingEdgeNeverFusedPostCommit) {
  smt::TermManager TM;
  // y-writes conflict across threads (non-movers); the assume blocks but
  // only conflicts with nobody, so it is a both-mover. The only legal
  // fusion is [assume; y := 2] with the assume *pre*-commit; [y := 1;
  // assume] would hide a blocked intermediate state post-commit.
  auto P = build("var int x := 0;\nvar int y := 0;\n"
                 "thread a { y := 1; assume x == 0; y := 2; }\n"
                 "thread b { y := 3; }\n",
                 TM);
  const smt::TermManager &CTM = TM;
  FusionStats FS = fuseTransactions(*P);
  ASSERT_EQ(FS.Transactions, 1u);
  EXPECT_EQ(FS.FusedEdges, 2u);
  Letter Fused = P->numLetters() - 1;
  const prog::Action &A = P->action(Fused);
  ASSERT_EQ(A.Prims.size(), 2u);
  // Blocking assume first (pre-commit), write second.
  EXPECT_EQ(A.Prims[0].K, prog::Prim::Kind::Assume);
  EXPECT_NE(A.Prims[0].Guard, CTM.mkTrue());
  EXPECT_EQ(A.Prims[1].K, prog::Prim::Kind::AssignInt);
}

TEST(Fusion, ErrorReachabilityPreservedOnExplicitProduct) {
  std::vector<std::string> Sources = {
      TwoWorkerMutex,
      workloads::loopSumSource(3, false),
      workloads::loopSumSource(3, true),
      workloads::bluetoothSource(1, true),
      workloads::stridePairSource(3, false),
      workloads::stridePairSource(3, true),
  };
  for (const std::string &Source : Sources) {
    smt::TermManager PlainTM, FusedTM;
    auto Plain = build(Source, PlainTM);
    auto Fused = build(Source, FusedTM);
    fuseTransactions(*Fused);
    bool PlainBug =
        !Plain->explicitProduct(prog::AcceptMode::Error).isEmpty();
    bool FusedBug =
        !Fused->explicitProduct(prog::AcceptMode::Error).isEmpty();
    EXPECT_EQ(PlainBug, FusedBug) << Source;
  }
}

TEST(Fusion, PrunedThenFusedShrinksBluetooth) {
  smt::TermManager TM;
  auto P = build(workloads::bluetoothSource(3, false), TM);
  pruneDeadEdges(*P);
  FusionStats FS = fuseTransactions(*P);
  EXPECT_GE(FS.Transactions, 1u);
  EXPECT_LT(FS.AlphabetAfter, FS.AlphabetBefore);
  EXPECT_LT(FS.StatesAfter, FS.StatesBefore);
}

} // namespace
