//===- analysis/Fusion.cpp - Lipton transaction fusion --------------------===//

#include "analysis/Fusion.h"

#include "analysis/Analysis.h"

#include <algorithm>
#include <deque>
#include <set>

using namespace seqver;
using namespace seqver::analysis;
using seqver::automata::Letter;
using seqver::prog::Location;

namespace {

/// Reachable locations of one thread (graph reachability from the entry).
uint32_t reachableLocations(const prog::ThreadCfg &Cfg) {
  std::vector<bool> Seen(Cfg.numLocations(), false);
  std::deque<Location> Work{Cfg.InitialLoc};
  Seen[Cfg.InitialLoc] = true;
  uint32_t Count = 0;
  while (!Work.empty()) {
    Location L = Work.front();
    Work.pop_front();
    ++Count;
    for (const auto &[Letter, To] : Cfg.Edges[L]) {
      (void)Letter;
      if (!Seen[To]) {
        Seen[To] = true;
        Work.push_back(To);
      }
    }
  }
  return Count;
}

uint32_t reachableLocations(const prog::ConcurrentProgram &P) {
  uint32_t Total = 0;
  for (int T = 0; T < P.numThreads(); ++T)
    Total += reachableLocations(P.thread(T));
  return Total;
}

/// Letters that label at least one CFG edge.
uint32_t enabledAlphabet(const prog::ConcurrentProgram &P) {
  std::vector<bool> Labels(P.numLetters(), false);
  for (int T = 0; T < P.numThreads(); ++T)
    for (const auto &List : P.thread(T).Edges)
      for (const auto &[L, To] : List) {
        (void)To;
        Labels[L] = true;
      }
  return static_cast<uint32_t>(
      std::count(Labels.begin(), Labels.end(), true));
}

/// An action blocks when some assume carries a non-trivial guard.
bool mayBlock(const prog::ConcurrentProgram &P, Letter L) {
  const smt::TermManager &TM = P.termManager();
  for (const prog::Prim &Pr : P.action(L).Prims)
    if (Pr.K == prog::Prim::Kind::Assume && Pr.Guard != TM.mkTrue())
      return true;
  return false;
}

struct ChainEdge {
  Location From;
  Letter L;
  Location To;
};

/// One maximal fusable segment of a linear chain.
using Segment = std::vector<ChainEdge>;

} // namespace

FusionStats seqver::analysis::fuseTransactions(prog::ConcurrentProgram &P,
                                               const MoverAnalysis &Movers) {
  FusionStats Stats;
  Stats.AlphabetBefore = enabledAlphabet(P);
  Stats.StatesBefore = reachableLocations(P);

  // Collect every segment first; the rewrite appends letters, and the
  // classification is only defined for the original alphabet.
  std::vector<std::pair<int, Segment>> Plan;

  for (int T = 0; T < P.numThreads(); ++T) {
    const prog::ThreadCfg &Cfg = P.thread(T);
    const uint32_t N = Cfg.numLocations();

    std::vector<uint32_t> InDeg(N, 0);
    for (Location L = 0; L < N; ++L)
      for (const auto &[EL, To] : Cfg.Edges[L]) {
        (void)EL;
        ++InDeg[To];
      }

    // A location other threads can never observe a thread *entering and
    // leaving invisibly*: exactly one way in, one way out, not the entry
    // point, not an error sink. Loop heads (in-degree >= 2) and assert
    // branch points (out-degree >= 2) fail this by construction.
    auto Interior = [&](Location L) {
      return InDeg[L] == 1 && Cfg.Edges[L].size() == 1 &&
             L != Cfg.InitialLoc && !Cfg.IsErrorLoc[L];
    };

    // Walk each maximal linear chain. Chains start at non-interior
    // locations; a cycle made purely of interior locations has no entry
    // edge and is unreachable, so nothing is missed.
    for (Location Start = 0; Start < N; ++Start) {
      if (Interior(Start))
        continue;
      for (const auto &[FirstLetter, FirstTo] : Cfg.Edges[Start]) {
        std::vector<ChainEdge> Chain{{Start, FirstLetter, FirstTo}};
        std::set<Location> OnChain{Start, FirstTo};
        Location Cur = FirstTo;
        while (Interior(Cur)) {
          const auto &[NextLetter, NextTo] = Cfg.Edges[Cur].front();
          if (OnChain.count(NextTo))
            break; // cycle: never swallow a back edge
          Chain.push_back({Cur, NextLetter, NextTo});
          OnChain.insert(NextTo);
          Cur = NextTo;
        }

        // Greedy phase machine over the chain: R-phase takes right- and
        // both-movers (blocking allowed), the first other edge commits,
        // L-phase takes non-blocking left- and both-movers. An edge into
        // an error location is a hard barrier in either phase.
        size_t I = 0;
        while (I < Chain.size()) {
          size_t Begin = I;
          bool Committed = false;
          while (I < Chain.size()) {
            const ChainEdge &E = Chain[I];
            if (Cfg.IsErrorLoc[E.To])
              break; // assert failure stays its own transition
            MoverClass C = Movers.classOf(E.L);
            if (!Committed) {
              if (C != MoverClass::Both && C != MoverClass::Right)
                Committed = true; // this edge is the commit
              ++I;
            } else {
              if ((C == MoverClass::Both || C == MoverClass::Left) &&
                  !mayBlock(P, E.L))
                ++I;
              else
                break;
            }
          }
          if (I - Begin >= 2)
            Plan.emplace_back(
                T, Segment(Chain.begin() + Begin, Chain.begin() + I));
          if (I == Begin)
            ++I; // barrier edge: skip it and restart after
        }
      }
    }
  }

  for (const auto &[T, Seg] : Plan) {
    prog::Action Fused;
    Fused.ThreadId = T;
    for (const ChainEdge &E : Seg) {
      const prog::Action &A = P.action(E.L);
      if (!Fused.Name.empty())
        Fused.Name += "; ";
      Fused.Name += A.Name;
      Fused.Prims.insert(Fused.Prims.end(), A.Prims.begin(), A.Prims.end());
    }
    Letter NewL = P.addAction(std::move(Fused));
    for (const ChainEdge &E : Seg)
      P.removeEdge(T, E.From, E.L);
    P.addEdge(T, Seg.front().From, NewL, Seg.back().To);
    Stats.FusedEdges += static_cast<uint32_t>(Seg.size());
    ++Stats.Transactions;
  }

  Stats.AlphabetAfter = enabledAlphabet(P);
  Stats.StatesAfter = reachableLocations(P);
  return Stats;
}

FusionStats seqver::analysis::fuseTransactions(prog::ConcurrentProgram &P) {
  LockSetAnalysis Locks(P);
  MayAccessAnalysis Accesses(P);
  IntervalAnalysis Intervals(P);
  OctagonAnalysis Octagons(P);
  KarrAnalysis Karr(P);
  std::vector<const InvariantSource *> Sources{&Intervals, &Octagons, &Karr};
  MoverAnalysis Movers(P, Locks, Accesses, Sources);
  return fuseTransactions(P, Movers);
}
