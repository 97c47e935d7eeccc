//===- analysis/StaticCommutativity.h - SMT-free commutativity tier -------===//
///
/// \file
/// Decides conditional-commutativity queries a ~_phi b without the SMT
/// solver whenever constant folding and interval reasoning suffice. The
/// check discharges the *same* proof obligations as the semantic tier —
/// equal guards and equal final values of the two symbolic compositions AB
/// and BA, built once per pair by prog::commutationObligations and handed
/// in by the caller — and accepts only when each obligation formula is
/// *statically unsat*:
///
///   phi /\ ¬(G_ab <-> G_ba)                     (guard agreement)
///   phi /\ G_ab /\ value_ab(v) != value_ba(v)   (for each written v)
///
/// Because the obligations are identical to the semantic tier's, a Commute
/// answer here implies the semantic answer for the same phi: the tier is a
/// sound filter, never a new source of reduction. Anything not provably
/// unsat is reported Unknown and falls through to SMT (or to a conservative
/// "no" when the solver is disabled).
///
/// TermManager canonicalization does most of the work: identical updates
/// (x := x+1 against x := x+1) make both compositions literally equal, and
/// conflicting lock acquires make both composed guards fold to false. The
/// interval decider mops up residual linear-arithmetic obligations.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_ANALYSIS_STATICCOMMUTATIVITY_H
#define SEQVER_ANALYSIS_STATICCOMMUTATIVITY_H

#include "automata/Dfa.h"
#include "program/Program.h"
#include "program/Semantics.h"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace seqver {
namespace analysis {

class InvariantSource;

/// Decides whether a ground formula is unsatisfiable by constant structure
/// and interval propagation over its literal conjuncts. "true" is a proof;
/// "false" means undecided. Exposed for tests.
bool staticallyUnsat(const smt::TermManager &TM, smt::Term Formula);

/// Relational unsat decider: builds one octagon over the formula's
/// variables and refines it with the literal conjuncts, so two-variable
/// obligations (x - y <= c chains) close where plain intervals cannot.
/// "true" is a proof; "false" means undecided. Formulas over more than
/// RelationalVarCap variables are not attempted (the DBM is quadratic).
bool staticallyUnsatRelational(const smt::TermManager &TM, smt::Term Formula);
constexpr size_t RelationalVarCap = 24;

/// Affine unsat decider: builds one Karr equality system over the
/// formula's variables, inserts the equality conjuncts, and reports unsat
/// when a (dis)equality conjunct contradicts the system — closing
/// obligations with non-unit coefficients (`total == 2*i`) that both the
/// interval and the octagon decider leave open. "true" is a proof; "false"
/// means undecided.
bool staticallyUnsatAffine(const smt::TermManager &TM, smt::Term Formula);
constexpr size_t AffineVarCap = 32;

/// Which tier settled a static commutativity query.
enum class StaticTierVerdict : uint8_t {
  Unknown,  ///< not provable statically; fall through to SMT
  Interval, ///< plain obligations statically unsat (sound filter of SMT)
  Octagon,  ///< obligations unsat only under the octagon location
            ///< invariants (a genuine strengthening of phi; see decide())
  Karr,     ///< obligations unsat only once the Karr affine equalities
            ///< are conjoined on top of the cheaper tiers' invariants
};

class StaticCommutativity {
public:
  explicit StaticCommutativity(const prog::ConcurrentProgram &P)
      : P(P), TM(P.termManager()) {}

  /// Full static decision for a ~_phi b, given the pair's obligations Obl
  /// (prog::commutationObligations of a and b). Phi == nullptr means
  /// phi = true. First tries the plain interval tier (a sound filter of the
  /// SMT answer). When that is inconclusive and invariant sources are
  /// installed, retries the open obligations under
  /// phi /\ Inv(src(a)) /\ Inv(src(b)), conjoining each source's
  /// location invariants cumulatively in registry order; the source whose
  /// addition closes the last open obligation names the verdict.
  ///
  /// Soundness of the strengthening: commutativity is only ever applied to
  /// *adjacent* occurrences of a and b along an execution, and in the state
  /// from which the pair executes, thread(a) sits at src(a) and thread(b)
  /// at src(b) — so that state satisfies both location invariants, and
  /// conjoining them into every obligation context is sound. Unlike the
  /// interval tier these are genuine strengthenings of phi: an Octagon or
  /// Karr verdict may hold where SMT on the un-strengthened obligation
  /// would not, i.e. the tiers are a new source of reduction, not just a
  /// filter. With no sources installed the answer depends on phi and the
  /// obligations alone. Precondition: different threads (callers dispatch
  /// same-thread pairs before any tier runs).
  StaticTierVerdict decide(smt::Term Phi, automata::Letter A,
                           automata::Letter B,
                           const prog::CommutationObligations &Obl);

  /// Installs (or clears, with an empty list) the invariant sources
  /// consulted by decide(), in the order their invariants are conjoined
  /// (cheapest first; "karr" last by convention). Letters whose source
  /// location is not unique in the thread CFG get no invariant
  /// (conservative).
  void setInvariantContext(std::vector<const InvariantSource *> NewSources);

  uint64_t numQueries() const { return Queries; }
  uint64_t numProofs() const { return Proofs; }
  /// Octagon-tier attempts (queries the interval tier left open while an
  /// octagon source was installed) and successes.
  uint64_t numOctQueries() const { return OctQueries; }
  uint64_t numOctProofs() const { return OctProofs; }
  /// Karr-tier attempts (queries still open after the octagon pass while a
  /// karr source was installed) and successes.
  uint64_t numKarrQueries() const { return KarrQueries; }
  uint64_t numKarrProofs() const { return KarrProofs; }

private:
  smt::Term invariantFor(const InvariantSource &S, automata::Letter L) const;

  const prog::ConcurrentProgram &P;
  smt::TermManager &TM;
  /// Invariant sources in strengthening order; empty = no invariant tiers.
  std::vector<const InvariantSource *> Sources;
  /// Letter -> unique (thread, source location), when unambiguous.
  std::vector<std::optional<std::pair<int, prog::Location>>> SrcOf;
  uint64_t Queries = 0;
  uint64_t Proofs = 0;
  uint64_t OctQueries = 0;
  uint64_t OctProofs = 0;
  uint64_t KarrQueries = 0;
  uint64_t KarrProofs = 0;
};

} // namespace analysis
} // namespace seqver

#endif // SEQVER_ANALYSIS_STATICCOMMUTATIVITY_H
