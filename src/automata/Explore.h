//===- automata/Explore.h - On-the-fly automaton materialization ----------===//
///
/// \file
/// Generic worklist exploration that materializes an implicitly-defined
/// deterministic automaton into an explicit Dfa. The reduction constructions
/// of Sec. 5/6 (sleep set automaton, pi-reduction, combined reduction) are
/// all implicit automata whose states are structured values (location plus
/// sleep set, etc.); this template does the interning and bookkeeping once.
///
/// The implicit automaton is described by a class exposing:
///   using StateType = ...;            // value type with operator==
///   StateType initialState();
///   bool isAccepting(const StateType &);
///   /// Successors in increasing letter order.
///   std::vector<std::pair<Letter, StateType>> successors(const StateType &);
///
/// States are indexed by an open-addressing InternTable keyed by hash +
/// equality (docs/PERF.md): a lookup costs one hash of the structured value
/// and O(1) probes instead of O(log n) deep lexicographic compares in an
/// ordered index. StateType hashes via
/// DefaultInternHash — integral types, vectors of integrals, or a
/// `uint64_t hash() const` member; state structs interning their heavy
/// components (sleep sets) down to ids get constant-time hashing.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_AUTOMATA_EXPLORE_H
#define SEQVER_AUTOMATA_EXPLORE_H

#include "automata/Dfa.h"
#include "support/InternTable.h"

#include <deque>

namespace seqver {
namespace automata {

/// Result of materializing an implicit automaton: the explicit Dfa plus the
/// structured state of every Dfa state index.
template <typename ImplicitAutomaton> struct Materialized {
  Dfa Automaton;
  std::vector<typename ImplicitAutomaton::StateType> States;

  Materialized() : Automaton(0) {}
};

/// Breadth-first materialization. MaxStates guards against accidental
/// state-space blowups (0 = unlimited); exceeding it aborts via the returned
/// Overflow flag so that callers can fall back or report.
template <typename ImplicitAutomaton>
Materialized<ImplicitAutomaton>
materialize(ImplicitAutomaton &Impl, uint32_t NumLetters,
            uint32_t MaxStates = 0, bool *Overflow = nullptr) {
  using StateType = typename ImplicitAutomaton::StateType;
  Materialized<ImplicitAutomaton> Result;
  Result.Automaton = Dfa(NumLetters);
  if (Overflow)
    *Overflow = false;

  // The intern arena doubles as the discovery-ordered state vector; ids are
  // Dfa state indices by construction.
  InternTable<StateType> Index;
  std::deque<State> Worklist;

  auto GetState = [&](const StateType &S) -> State {
    bool Inserted = false;
    uint32_t Id = Index.intern(S, &Inserted);
    if (Inserted) {
      State Added = Result.Automaton.addState(Impl.isAccepting(S));
      assert(Added == Id && "intern ids must track Dfa state ids");
      (void)Added;
      Worklist.push_back(Id);
    }
    return Id;
  };

  Result.Automaton.setInitial(GetState(Impl.initialState()));
  while (!Worklist.empty()) {
    State Id = Worklist.front();
    Worklist.pop_front();
    // Index[Id] stays valid through the successors() call; GetState (which
    // can grow the arena and invalidate references) only runs afterwards,
    // on the materialized successor list.
    auto Successors = Impl.successors(Index[Id]);
    for (auto &[L, Next] : Successors) {
      if (MaxStates != 0 && Result.Automaton.numStates() >= MaxStates &&
          Index.lookup(Next) == InternTable<StateType>::NotFound) {
        if (Overflow)
          *Overflow = true;
        Result.States = Index.takeValues();
        return Result;
      }
      Result.Automaton.addTransition(Id, L, GetState(Next));
    }
  }
  Result.States = Index.takeValues();
  return Result;
}

} // namespace automata
} // namespace seqver

#endif // SEQVER_AUTOMATA_EXPLORE_H
