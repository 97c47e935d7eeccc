//===- reduction/SleepSet.h - Sleep set automaton (Def. 5.1) --------------===//
///
/// \file
/// The sleep set automaton S_<(A) of Sec. 5: states are pairs of an input
/// automaton state and a sleep set; edges labeled by sleeping letters are
/// pruned, and the construction unrolls the input automaton by sleep set
/// (and by order context, for positional orders). It recognizes exactly the
/// lexicographic reduction red_lex(<)(L(A)) (Thm. 5.3).
///
/// Two entry points, each with one hashed state index:
///  - sleepSetAutomaton: generic, over an explicit Dfa (tests, Fig. 3);
///  - buildReduction: over a concurrent program, optionally composed with
///    the pi-reduction by weakly persistent membranes (Sec. 6.2, Thm. 6.6).
///
/// The first is the second's oracle: with sleep sets only, buildReduction
/// builds exactly sleepSetAutomaton(P.explicitProduct(Mode), ...), state
/// for state, since both add states in the same BFS order
/// (tests/hotpath_differential_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_REDUCTION_SLEEPSET_H
#define SEQVER_REDUCTION_SLEEPSET_H

#include "automata/Dfa.h"
#include "program/Program.h"
#include "reduction/Commutativity.h"
#include "reduction/PersistentSets.h"
#include "reduction/PreferenceOrder.h"
#include "support/Statistics.h"

#include <functional>

namespace seqver {
namespace red {

/// Letter-level commutativity oracle for the generic construction.
using CommutesFn =
    std::function<bool(automata::Letter, automata::Letter)>;

/// Generic letter order for the generic construction: non-program-specific
/// orders used by tests subclass PreferenceOrder directly.
///
/// Materializes S_<(A). MaxStates = 0 means unlimited.
automata::Dfa sleepSetAutomaton(const automata::Dfa &A,
                                const PreferenceOrder &Order,
                                const CommutesFn &Commutes,
                                uint32_t MaxStates = 0,
                                bool *Overflow = nullptr);

/// Applies a pi-reduction (Sec. 6.1) to A: keeps from each state only the
/// edges allowed by Pi(state).
automata::Dfa piReduce(const automata::Dfa &A,
                       const std::function<std::vector<automata::Letter>(
                           automata::State)> &Pi);

/// Which reduction machinery to enable when building a program reduction.
struct ReductionConfig {
  bool UseSleepSets = true;
  bool UsePersistentSets = true;
  /// Acceptance of the result automaton.
  prog::AcceptMode Mode = prog::AcceptMode::Error;
  /// Safety valve for materialization; 0 = unlimited.
  uint32_t MaxStates = 0;
  /// Optional counter sink: reduction_states, sleepset_intern_hits/misses,
  /// sleepset_distinct, sleepset_inline_repr (see docs/PERF.md).
  Statistics *Stats = nullptr;
};

/// Result of an explicit program-reduction construction.
struct ProgramReduction {
  automata::Dfa Automaton{0};
  bool Overflow = false;
};

/// Materializes ( S_<(P) ) |down pi_S  for the program's interleaving
/// product: sleep sets per Def. 5.1, persistent membranes per Algorithm 1
/// (pi_S(q, S) = pi(q) \ S, Sec. 6.2). Order may be null only if
/// UseSleepSets is false.
ProgramReduction buildReduction(const prog::ConcurrentProgram &P,
                                const PreferenceOrder *Order,
                                CommutativityChecker &Commut,
                                const ReductionConfig &Config);

} // namespace red
} // namespace seqver

#endif // SEQVER_REDUCTION_SLEEPSET_H
