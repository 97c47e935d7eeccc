//===- core/Proof.h - Floyd/Hoare proof automaton -------------------------===//
///
/// \file
/// The candidate proof of the trace abstraction refinement scheme (Sec. 7.2,
/// after Heizmann et al.): a pool of assertions (predicates) and a
/// deterministic automaton over predicate *sets*. In state S (a set of
/// predicates known to hold), reading action a leads to the set of all pool
/// predicates psi with valid Hoare triple {conj(S)} a {psi}. A trace is
/// covered by the proof iff its run ends in a set containing the predicate
/// "false" (the trace is infeasible).
///
/// The paper's proof-size metric is the number of assertions in the pool.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_CORE_PROOF_H
#define SEQVER_CORE_PROOF_H

#include "program/Program.h"
#include "program/Semantics.h"
#include "smt/Solver.h"

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace seqver {
namespace core {

/// Canonical sorted vector of predicate ids.
using PredSet = std::vector<uint32_t>;

/// Grows monotonically across refinement rounds. step() always runs its
/// Hoare queries; callers that revisit a (set, letter) pair memoize the
/// answer themselves (the verifier's DFS keeps a per-round table keyed by
/// interned set ids, see docs/PERF.md §3).
class ProofAutomaton {
public:
  ProofAutomaton(smt::TermManager &TM, smt::QueryEngine &QE,
                 prog::FreshVarSource &Fresh,
                 const prog::ConcurrentProgram &P);

  /// Id of the distinguished predicate "false".
  static constexpr uint32_t FalseId = 0;

  /// Adds Predicate to the pool (deduplicated); returns its id. Adding
  /// "true" is a no-op returning an id that never helps coverage.
  uint32_t addPredicate(smt::Term Predicate);

  /// Seeds the pool with externally inferred candidate invariants (e.g. the
  /// octagon analysis's per-location atoms) before the first round; returns
  /// how many were new. Soundness does not depend on the seeds being
  /// correct: a predicate only ever enters an automaton state through
  /// initialSet()/step(), both of which gate on SMT-checked implications
  /// (a seed that is not inductive where needed simply never helps
  /// coverage). Seeding only changes *which* proof is found and how fast.
  size_t addSeedPredicates(const std::vector<smt::Term> &Seeds);

  size_t numPredicates() const { return Predicates.size(); }
  smt::Term predicate(uint32_t Id) const { return Predicates[Id]; }

  /// Conjunction term of the predicates in S (cached).
  smt::Term conjunction(const PredSet &S);

  /// Predicates implied by the program's initial constraint.
  PredSet initialSet();

  /// Proof transition: largest T with {conj(S)} a {conj(T)} valid. Not
  /// memoized: every call issues one Hoare query per enabled predicate.
  PredSet step(const PredSet &S, automata::Letter L);

  bool isFalse(const PredSet &S) const {
    return !S.empty() && S.front() == FalseId;
  }

  /// Restricts the automaton to a subset of the pool: disabled predicates
  /// are never produced by initialSet()/step(). Used by proof minimization.
  /// An empty mask (the default) enables everything.
  void setEnabledMask(std::vector<bool> Mask);
  /// Number of currently enabled predicates.
  size_t numEnabled() const;
  /// True if predicate Id is enabled under the current mask.
  bool predicateEnabled(uint32_t Id) const { return isEnabled(Id); }

  uint64_t numHoareQueries() const { return HoareQueries; }

  /// Enables incremental SMT for the Hoare gate: one smt::Session per
  /// transition letter (plus one for initialSet), with each negated
  /// postcondition prepared once as an assumable premise and each
  /// precondition one more assumption. Verdicts match the fresh-instance
  /// path exactly; sessions live as long as the automaton, so they carry
  /// over from round to round, which is where the savings come from. Off
  /// by default.
  void setIncremental(bool On) { Incremental = On; }

private:
  /// One session per letter (or the initial-constraint gate): the premise
  /// handles of the negated postconditions, keyed by predicate id.
  struct HoareSession {
    std::unique_ptr<smt::Session> Sess;
    std::map<uint32_t, smt::Session::Handle> NegPost;
  };

  /// wp(a, psi), cached per (letter, predicate).
  smt::Term wpCached(automata::Letter L, uint32_t PredId);
  /// {Pre} -> Post via HS's session, replicating QueryEngine::implies's
  /// fast paths so incremental and fresh verdicts agree literally.
  bool hoareHolds(HoareSession &HS, smt::Term Pre, uint32_t PostId,
                  smt::Term Post);

  smt::TermManager &TM;
  smt::QueryEngine &QE;
  prog::FreshVarSource &Fresh;
  const prog::ConcurrentProgram &P;

  bool isEnabled(uint32_t Id) const {
    return EnabledMask.empty() || EnabledMask[Id];
  }

  std::vector<smt::Term> Predicates;
  std::vector<bool> EnabledMask; // empty = all enabled
  std::map<smt::Term, uint32_t> PredicateIds;
  std::map<PredSet, smt::Term> ConjCache;
  std::map<std::pair<automata::Letter, uint32_t>, smt::Term> WpCache;
  std::map<automata::Letter, HoareSession> LetterSessions;
  HoareSession InitSession;
  uint64_t HoareQueries = 0;
  bool Incremental = false;
};

} // namespace core
} // namespace seqver

#endif // SEQVER_CORE_PROOF_H
