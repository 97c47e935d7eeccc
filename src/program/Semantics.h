//===- program/Semantics.h - Symbolic semantics of actions ----------------===//
///
/// \file
/// Weakest preconditions and symbolic composition for program actions.
///
/// - wp drives the Floyd/Hoare annotation of infeasible traces during
///   refinement (a sound stand-in for interpolation; see DESIGN.md) and the
///   Hoare-triple checks of the proof automaton.
/// - Symbolic composition supports the commutativity checks of Sec. 7
///   (including conditional commutativity, Def. 7.3): two actions commute
///   under phi iff composing them in either order yields equivalent guards
///   and final values, assuming phi in the initial state.
///
/// Havoc is handled with globally fresh variables: the universally
/// quantified wp of havoc is expressed by substituting a fresh symbol, which
/// is exact for the validity checks performed here (free variables of closed
/// queries are implicitly universally quantified).
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_PROGRAM_SEMANTICS_H
#define SEQVER_PROGRAM_SEMANTICS_H

#include "program/Program.h"
#include "smt/Term.h"

#include <cstdint>
#include <map>
#include <vector>

namespace seqver {
namespace prog {

/// Generates globally fresh variables (for havoc). One instance is shared
/// per verification run so names never collide.
class FreshVarSource {
public:
  explicit FreshVarSource(smt::TermManager &TM) : TM(TM) {}

  smt::Term fresh(smt::Sort S) {
    return TM.mkVar("havoc!" + std::to_string(Counter++),
                    S);
  }

private:
  smt::TermManager &TM;
  uint64_t Counter = 0;
};

/// wp(A, Post): the weakest precondition of action A for postcondition Post.
smt::Term wpAction(smt::TermManager &TM, const Action &A, smt::Term Post,
                   FreshVarSource &Fresh);

/// A symbolic state: current value of each modified variable, plus the
/// accumulated guard. Unmodified variables implicitly map to themselves.
struct SymbolicState {
  smt::Substitution Values;
  smt::Term Guard = nullptr; ///< set by makeIdentity

  /// Current symbolic value of an integer variable.
  smt::LinSum intValue(smt::TermManager &TM, smt::Term Var) const;
  /// Current symbolic value of a boolean variable.
  smt::Term boolValue(smt::Term Var) const;
};

/// Identity state with guard true.
SymbolicState symbolicIdentity(smt::TermManager &TM);

/// Applies action A to State in place. CanonicalHavoc maps (action letter,
/// prim index) to a stable fresh variable so that the same havoc occurrence
/// produces the same symbol in both composition orders.
void applySymbolic(smt::TermManager &TM, const Action &A,
                   SymbolicState &State,
                   std::map<std::pair<automata::Letter, size_t>, smt::Term>
                       &CanonicalHavoc);

/// The proof obligations of a ~_phi b (Def. 7.3): a and b commute under phi
/// iff phi /\ GuardsDiffer is unsat and, for every written variable v,
/// phi /\ CommonGuard /\ ValuesDiffer[v] is unsat.
struct CommutationObligations {
  smt::Term CommonGuard = nullptr;  ///< G_ab (== G_ba where GuardsDiffer
                                    ///< is unsat)
  smt::Term GuardsDiffer = nullptr; ///< !(G_ab <=> G_ba)
  /// value_ab(v) != value_ba(v), one per variable either action writes, in
  /// term-id order.
  std::vector<smt::Term> ValuesDiffer;
};

/// Composes A and B symbolically in both orders (the lower letter is "a",
/// so the argument order does not matter) with canonical havoc naming, and
/// states the obligations of their commutation. Every commutativity tier
/// discharges these terms; none composes actions itself.
CommutationObligations commutationObligations(smt::TermManager &TM,
                                              const Action &A,
                                              const Action &B);

} // namespace prog
} // namespace seqver

#endif // SEQVER_PROGRAM_SEMANTICS_H
