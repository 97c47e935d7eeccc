//===- reduction/PersistentSets.cpp - Algorithm 1 (Sec. 7.1) --------------===//

#include "reduction/PersistentSets.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace seqver;
using namespace seqver::red;
using seqver::automata::Letter;
using seqver::prog::Location;
using seqver::prog::ProductState;
using seqver::prog::ThreadCfg;

PersistentSetComputer::PersistentSetComputer(
    const prog::ConcurrentProgram &P, CommutativityChecker &Commut,
    const PreferenceOrder *Order)
    : P(P), Commut(Commut), Order(Order) {
  HasAssert.resize(static_cast<size_t>(P.numThreads()));
  for (int T = 0; T < P.numThreads(); ++T)
    HasAssert[static_cast<size_t>(T)] = P.thread(T).containsAssert();
  precomputeConflicts();
}

void PersistentSetComputer::precomputeConflicts() {
  int N = P.numThreads();

  // Per thread, per location: letters on edges of locations reachable from
  // it (within the thread), i.e. the actions the thread may still perform.
  std::vector<std::vector<Bitset>> ReachableLetters(
      static_cast<size_t>(N));
  for (int T = 0; T < N; ++T) {
    const ThreadCfg &Cfg = P.thread(T);
    auto &PerLoc = ReachableLetters[static_cast<size_t>(T)];
    PerLoc.assign(Cfg.numLocations(), Bitset(P.numLetters()));
    for (Location Start = 0; Start < Cfg.numLocations(); ++Start) {
      std::vector<bool> Seen(Cfg.numLocations(), false);
      std::deque<Location> Worklist = {Start};
      Seen[Start] = true;
      while (!Worklist.empty()) {
        Location Current = Worklist.front();
        Worklist.pop_front();
        for (const auto &[L, To] : Cfg.Edges[Current]) {
          PerLoc[Start].set(L);
          if (!Seen[To]) {
            Seen[To] = true;
            Worklist.push_back(To);
          }
        }
      }
    }
  }

  // Conflict relation l_i ~~> l_j: an action enabled at l_i does not commute
  // with an action still performable from l_j.
  Conflicts.assign(static_cast<size_t>(N), {});
  for (int I = 0; I < N; ++I) {
    const ThreadCfg &CfgI = P.thread(I);
    Conflicts[static_cast<size_t>(I)].assign(CfgI.numLocations(), {});
    for (Location LI = 0; LI < CfgI.numLocations(); ++LI) {
      auto &Row = Conflicts[static_cast<size_t>(I)][LI];
      Row.assign(static_cast<size_t>(N), Bitset());
      for (int J = 0; J < N; ++J) {
        if (J == I)
          continue;
        const ThreadCfg &CfgJ = P.thread(J);
        Bitset Flags(CfgJ.numLocations());
        for (Location LJ = 0; LJ < CfgJ.numLocations(); ++LJ) {
          bool Conflict = false;
          for (const auto &[A, ToA] : CfgI.Edges[LI]) {
            (void)ToA;
            ReachableLetters[static_cast<size_t>(J)][LJ].forEach(
                [&](size_t B) {
                  if (Conflict)
                    return;
                  if (!Commut.commutes(A, static_cast<Letter>(B)))
                    Conflict = true;
                });
            if (Conflict)
              break;
          }
          if (Conflict)
            Flags.set(LJ);
        }
        Row[static_cast<size_t>(J)] = std::move(Flags);
      }
    }
  }
}

bool PersistentSetComputer::locationsConflict(int ThreadI, Location LocI,
                                              int ThreadJ,
                                              Location LocJ) const {
  assert(ThreadI != ThreadJ && "conflict relation is cross-thread");
  return Conflicts[static_cast<size_t>(ThreadI)][LocI]
                  [static_cast<size_t>(ThreadJ)]
                      .test(LocJ);
}

const Bitset &PersistentSetComputer::compute(uint32_t StateId,
                                             const ProductState &S,
                                             PreferenceOrder::Context Ctx) {
  PreferenceOrder::Context KeyCtx =
      (Order && Order->isPositional()) ? Ctx : PreferenceOrder::InitialContext;
  bool Inserted = false;
  uint32_t Id = CacheIndex.intern({StateId, KeyCtx}, &Inserted);
  if (!Inserted) {
    ++CacheHits;
    return Membranes[Id];
  }

  // The letters a thread enables are the edges at its current location.
  size_t N = static_cast<size_t>(P.numThreads());
  auto EnabledAt = [&](size_t T) -> const auto & {
    return P.thread(static_cast<int>(T)).Edges[S[T]];
  };
  auto IsActive = [&](size_t T) { return !EnabledAt(T).empty(); };

  // Build the conflict graph over active threads: edge I -> J when thread J
  // must be included whenever I is (conflict or preference compatibility).
  Adj.resize(N);
  RevAdj.resize(N);
  for (size_t I = 0; I < N; ++I) {
    Adj[I].clear();
    RevAdj[I].clear();
  }
  for (size_t I = 0; I < N; ++I) {
    if (!IsActive(I))
      continue;
    for (size_t J = 0; J < N; ++J) {
      if (I == J || !IsActive(J))
        continue;
      bool Edge = locationsConflict(static_cast<int>(I), S[I],
                                    static_cast<int>(J), S[J]);
      if (!Edge && Order) {
        // Compatibility (Sec. 6.2): if some action of J is preferred over
        // some action of I, selecting I requires selecting J.
        for (const auto &[B, ToB] : EnabledAt(I)) {
          (void)ToB;
          for (const auto &[A, ToA] : EnabledAt(J)) {
            (void)ToA;
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
        Adj[I].push_back(static_cast<int>(J));
    }
  }

  // Kosaraju SCC over the active subgraph. The first pass is a DFS on an
  // explicit stack of (node, next-edge index), finishing nodes in the order
  // the recursive formulation would.
  FinishOrder.clear();
  Visited.assign(N, false);
  for (size_t Root = 0; Root < N; ++Root) {
    if (!IsActive(Root) || Visited[Root])
      continue;
    Visited[Root] = true;
    DfsStack.push_back({static_cast<int>(Root), 0});
    while (!DfsStack.empty()) {
      auto &[U, Next] = DfsStack.back();
      const std::vector<int> &Out = Adj[static_cast<size_t>(U)];
      if (Next < Out.size()) {
        int V = Out[Next++];
        if (!Visited[static_cast<size_t>(V)]) {
          Visited[static_cast<size_t>(V)] = true;
          DfsStack.push_back({V, 0});
        }
        continue;
      }
      FinishOrder.push_back(U);
      DfsStack.pop_back();
    }
  }

  for (size_t U = 0; U < N; ++U)
    for (int V : Adj[U])
      RevAdj[static_cast<size_t>(V)].push_back(static_cast<int>(U));

  ComponentOf.assign(N, -1);
  int NumComponents = 0;
  for (auto RIt = FinishOrder.rbegin(); RIt != FinishOrder.rend(); ++RIt) {
    if (ComponentOf[static_cast<size_t>(*RIt)] != -1)
      continue;
    int Comp = NumComponents++;
    Worklist.clear();
    Worklist.push_back(*RIt);
    ComponentOf[static_cast<size_t>(*RIt)] = Comp;
    for (size_t Head = 0; Head < Worklist.size(); ++Head)
      for (int V : RevAdj[static_cast<size_t>(Worklist[Head])])
        if (ComponentOf[static_cast<size_t>(V)] == -1) {
          ComponentOf[static_cast<size_t>(V)] = Comp;
          Worklist.push_back(V);
        }
  }

  // Topologically maximal components: no edge to another component.
  HasOutgoing.assign(static_cast<size_t>(NumComponents), false);
  for (size_t U = 0; U < N; ++U)
    for (int V : Adj[U])
      if (ComponentOf[U] != ComponentOf[static_cast<size_t>(V)])
        HasOutgoing[static_cast<size_t>(ComponentOf[U])] = true;

  // Pick the maximal component whose enabled-action set is smallest
  // (deterministic tie-break by component id).
  int Best = -1;
  size_t BestSize = SIZE_MAX;
  for (int Comp = 0; Comp < NumComponents; ++Comp) {
    if (HasOutgoing[static_cast<size_t>(Comp)])
      continue;
    size_t Size = 0;
    for (size_t T = 0; T < N; ++T)
      if (ComponentOf[T] == Comp)
        Size += EnabledAt(T).size();
    if (Size < BestSize) {
      BestSize = Size;
      Best = Comp;
    }
  }

  // Selection: the chosen component plus all active assert threads, closed
  // under the graph edges.
  Selected.assign(N, false);
  Worklist.clear();
  auto Select = [&](size_t T) {
    if (!Selected[T]) {
      Selected[T] = true;
      Worklist.push_back(static_cast<int>(T));
    }
  };
  for (size_t T = 0; T < N; ++T) {
    if (!IsActive(T))
      continue;
    if (Best != -1 && ComponentOf[T] == Best)
      Select(T);
    if (HasAssert[T])
      Select(T);
  }
  for (size_t Head = 0; Head < Worklist.size(); ++Head)
    for (int V : Adj[static_cast<size_t>(Worklist[Head])])
      Select(static_cast<size_t>(V));

  Bitset M(P.numLetters());
  for (size_t T = 0; T < N; ++T)
    if (Selected[T])
      for (const auto &[L, To] : EnabledAt(T)) {
        (void)To;
        M.set(L);
      }

  assert(Id == Membranes.size() && "membranes are aligned with key ids");
  Membranes.push_back(std::move(M));
  return Membranes.back();
}
