//===- smt/Solver.h - Lazy DPLL(T) solver facade --------------------------===//
///
/// \file
/// The public satisfiability interface of MiniSMT: Tseitin-encodes asserted
/// formulas into a CDCL SAT solver and runs a lazy DPLL(T) loop against the
/// linear integer arithmetic procedure. Disequalities (negated equalities)
/// are handled by on-demand split lemmas  (s != 0) -> (s <= -1 \/ s >= 1).
///
/// A Solver instance is *reusable*: the Tseitin encoding cache, atom/variable
/// maps, split-lemma set, learned clauses, and theory blocking lemmas all
/// persist across check() calls. Retractable premises enter through
/// activation literals — activationFor(F) allocates a selector s with the
/// permanent clause (s -> enc(F)); assuming s enables F, dropping the
/// assumption retracts it without erasing anything the solver learned.
///
/// The verification layer normally goes through smt::QueryEngine, which
/// offers both the classic fresh-instance path (one throwaway Solver per
/// query, result cached at the formula level) and incremental Sessions that
/// keep one Solver alive across a related query stream (see smt::Session).
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_SMT_SOLVER_H
#define SEQVER_SMT_SOLVER_H

#include "smt/Evaluator.h"
#include "smt/LiaSolver.h"
#include "smt/SatSolver.h"
#include "smt/Term.h"
#include "support/InternTable.h"
#include "support/Timer.h"

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace seqver {
namespace smt {

enum class SolverResult { Sat, Unsat, Unknown };

/// Hashes a Term by its dense node id (terms are hash-consed, so id equality
/// is term equality).
struct TermIdHash {
  size_t operator()(Term T) const {
    return static_cast<size_t>(hashMix(T->id()));
  }
};

struct TermPairIdHash {
  size_t operator()(const std::pair<Term, Term> &P) const {
    return static_cast<size_t>(
        hashCombine(hashMix(P.first->id()), P.second->id()));
  }
};

/// Decides the conjunction of the asserted formulas, plus whatever premises
/// are active via explicit assumptions. Reusable across checks; see the file
/// comment for the incremental contract.
class Solver {
public:
  explicit Solver(TermManager &TM) : TM(TM) {}

  /// Permanently asserts Formula (not retractable).
  void assertFormula(Term Formula);

  /// Memoized activation literal for Formula: the clause (lit -> enc(F)) is
  /// permanent, so assuming the literal is equivalent to asserting F.
  Lit activationFor(Term Formula);

  /// Decides the permanent assertions.
  SolverResult check() { return checkUnder({}); }

  /// Like check(), additionally assuming the given literals (normally
  /// activation literals). Unknown is returned on theory budget exhaustion
  /// or when a watched cancellation token fires mid-search.
  SolverResult checkUnder(const std::vector<Lit> &ExtraAssumptions);

  /// Total model (defaults applied) after a Sat answer.
  const Assignment &model() const { return Model; }

  /// Number of theory-check iterations of the last check (statistic).
  uint64_t numTheoryRounds() const { return TheoryRounds; }
  /// Theory-check iterations over the solver's lifetime (statistic).
  uint64_t numTheoryRoundsTotal() const { return TheoryRoundsTotal; }
  /// Learned clauses inherited across SAT solve calls (statistic).
  uint64_t numClausesRetained() const { return Sat.numClausesRetained(); }
  /// Branch-and-bound pivots from a copied parent basis in the theory
  /// layer (statistic).
  uint64_t numWarmPivots() const { return Lia.numWarmPivots(); }
  /// Size proxy used by sessions to decide on an epoch reset.
  uint32_t numVars() const { return Sat.numVars(); }

  /// Registers a cancellation token; it is polled once per theory round and
  /// every few thousand SAT conflicts. A fired token makes the running
  /// check return Unknown (never a wrong verdict).
  void watchCancellation(const runtime::CancellationToken *Token) {
    if (!Token)
      return;
    Watched.push_back(Token);
    Sat.watchCancellation(Token);
  }

private:
  Lit encode(Term Formula);
  uint32_t atomVar(Term Atom);
  /// Theory/boolean atom variables occurring in Formula (memoized). Only
  /// valid for formulas that have been encoded.
  const std::vector<uint32_t> &formulaAtomVars(Term Formula);
  bool stopRequested() const {
    for (const runtime::CancellationToken *T : Watched)
      if (T->stopRequested())
        return true;
    return false;
  }

  TermManager &TM;
  SatSolver Sat;
  LiaSolver Lia;
  std::vector<Term> Assertions;
  std::unordered_map<Term, Lit, TermIdHash> EncodingCache;
  std::unordered_map<Term, Lit, TermIdHash> SelectorOf;
  /// Theory atoms (AtomLe/AtomEq) and boolean variables by SAT var.
  std::unordered_map<Term, uint32_t, TermIdHash> AtomToVar;
  std::vector<Term> VarToAtom; // indexed by SAT var; nullptr for gate vars
  std::unordered_set<Term, TermIdHash> SplitDone; // Eq atoms already split
  /// Active-set restriction state: the theory only sees atoms of formulas
  /// that are asserted or assumed in the current check (plus lemma atoms),
  /// so a long-lived solver's dead premises cost the theory nothing.
  std::unordered_map<Term, std::vector<uint32_t>, TermIdHash> FormulaAtomVars;
  std::unordered_map<Lit, Term> SelectorTerm; // reverse of SelectorOf
  std::vector<uint32_t> LemmaAtomVars; // split-lemma atoms, always active
  /// Generation-stamped active marks plus the list of marked vars, so each
  /// check costs O(active set), not O(all vars the solver ever created).
  std::vector<uint32_t> ActiveMark; // indexed by SAT var; == ActiveGen if on
  std::vector<uint32_t> ActiveList; // vars marked in the current check
  uint32_t ActiveGen = 0;
  uint32_t ActiveMarkLimit = 0; // vars at/after this index count as active
  std::vector<const runtime::CancellationToken *> Watched;
  bool TriviallyUnsat = false;
  Assignment Model;
  uint64_t TheoryRounds = 0;
  uint64_t TheoryRoundsTotal = 0;
};

class Session;

/// Hash for sorted uint32 key vectors (premise-set and memo keys).
struct IdVecHash {
  size_t operator()(const std::vector<uint32_t> &Key) const {
    uint64_t H = hashMix(Key.size());
    for (uint32_t V : Key)
      H = hashCombine(H, V);
    return static_cast<size_t>(H);
  }
};

/// Convenience helpers with caching, shared by the verifier. All helpers are
/// conservative in the Unknown case (documented per function). Offers two
/// paths: the classic fresh-instance helpers below, and openSession() for
/// incremental query streams (one long-lived Solver, premises as assumption
/// literals). Results produced while a watched cancellation token has fired
/// are never cached.
class QueryEngine {
public:
  explicit QueryEngine(TermManager &TM) : TM(TM) {}

  TermManager &termManager() { return TM; }

  /// Satisfiability of a single formula (cached).
  SolverResult checkSat(Term Formula);

  /// True iff Left -> Right is valid. Unknown counts as "not proven valid".
  bool implies(Term Left, Term Right);

  /// True iff Formula is unsatisfiable. Unknown counts as "not proven".
  bool isUnsat(Term Formula) { return checkSat(Formula) == SolverResult::Unsat; }

  /// Opens an incremental session: one persistent Solver shared by a stream
  /// of related queries. The session holds a reference to this engine (and
  /// its TermManager); it must not outlive it.
  std::unique_ptr<Session> openSession();

  /// Registers a cancellation token propagated into every solver this
  /// engine creates (fresh-path and sessions opened afterwards).
  void watchCancellation(const runtime::CancellationToken *Token) {
    if (Token)
      Watched.push_back(Token);
  }

  uint64_t numQueries() const { return Queries; }
  uint64_t numCacheHits() const { return CacheHits; }
  /// Sessions opened (statistic: smt_sessions).
  uint64_t numSessions() const { return Sessions; }
  /// Incremental solves under assumptions (statistic: smt_assumption_solves).
  uint64_t numAssumptionSolves() const { return AssumptionSolves; }
  /// Real solves, fresh path and sessions, that answered Sat (statistic:
  /// smt_sat_solves).
  uint64_t numSatSolves() const { return SatSolves; }
  /// Session queries checked against the session's stored countermodels,
  /// and those a stored model answered (statistics: smt_model_tries,
  /// smt_model_hits).
  uint64_t numModelTries() const { return ModelTries; }
  uint64_t numModelHits() const { return ModelHits; }
  /// Learned clauses inherited across solve calls, fresh and incremental
  /// paths combined (statistic: smt_clauses_retained).
  uint64_t numClausesRetained() const { return ClausesRetained; }
  /// Theory rounds across all solvers (statistic: smt_theory_rounds).
  uint64_t numTheoryRounds() const { return TheoryRoundsTotal; }
  /// Branch-and-bound pivots from a copied parent basis (statistic:
  /// smt_tableau_warm_pivots).
  uint64_t numWarmPivots() const { return WarmPivots; }
  /// Wall-clock microseconds spent inside solver checks, both paths, and in
  /// sessions' countermodel checks; the incremental axis compares this
  /// figure across arms.
  uint64_t solverMicros() const { return SolverNanos / 1000; }

private:
  friend class Session;

  bool stopRequested() const {
    for (const runtime::CancellationToken *T : Watched)
      if (T->stopRequested())
        return true;
    return false;
  }
  /// Charges the time since Clock started to the solver (nanoseconds, so
  /// sub-microsecond model checks do not round away).
  void chargeSolver(const Timer &Clock) {
    SolverNanos += static_cast<uint64_t>(Clock.seconds() * 1e9);
  }
  /// Called by sessions after each real solve to fold their costs into the
  /// engine-wide statistics.
  void noteSessionSolve(const Timer &Clock, uint64_t Rounds, uint64_t Retained,
                        uint64_t Warm) {
    ++AssumptionSolves;
    chargeSolver(Clock);
    TheoryRoundsTotal += Rounds;
    ClausesRetained += Retained;
    WarmPivots += Warm;
  }

  TermManager &TM;
  /// Verdicts keyed by the hash-consed formula. Shared between the fresh
  /// path (which solves exactly this conjunction) and sessions (which solve
  /// the equivalent premise set under assumptions): the mkAnd
  /// canonicalization — flattening, sorting, complement folding — makes
  /// differently-split premise sets collide on one key, and lets the same
  /// logical query recur across *different* sessions (the same Hoare triple
  /// under every letter) without a solve.
  std::unordered_map<Term, SolverResult, TermIdHash> SatCache;
  std::unordered_map<std::pair<Term, Term>, bool, TermPairIdHash> ImplCache;
  std::vector<const runtime::CancellationToken *> Watched;
  uint64_t Queries = 0;
  uint64_t CacheHits = 0;
  uint64_t Sessions = 0;
  uint64_t AssumptionSolves = 0;
  uint64_t SatSolves = 0;
  uint64_t ModelTries = 0;
  uint64_t ModelHits = 0;
  uint64_t ClausesRetained = 0;
  uint64_t TheoryRoundsTotal = 0;
  uint64_t WarmPivots = 0;
  uint64_t SolverNanos = 0;
};

/// An incremental query session: one persistent Solver decides a stream of
/// related queries. Premises are registered once via prepare() (returning a
/// stable Handle backed by an activation literal) and activated per query as
/// assumptions, so the SAT encoding, learned clauses and theory lemmas all
/// carry over between queries.
///
/// Handles survive epoch resets: when the underlying solver accumulates too
/// much dead state (vars beyond kEpochVarLimit), the session transparently
/// rebuilds it and re-encodes premises lazily from the stored terms. Decisive
/// results are memoized by the exact assumption set, so repeated queries
/// (e.g. the Hoare gate re-proving unchanged triples each refinement round)
/// skip the solver entirely. A query that misses both memo tables is first
/// evaluated on the models of the session's last kModelRing Sat solves: a
/// model that satisfies it is a concrete witness, so it is answered Sat
/// without a solve (Unsat and Unknown only ever come from solves). Verdicts
/// never depend on session state — only the work to reach them does.
class Session {
public:
  /// Stable identifier for a prepared premise (index, not a literal).
  using Handle = uint32_t;

  explicit Session(QueryEngine &QE) : QE(QE) {}

  /// Registers Formula as an assumable premise (memoized per term).
  Handle prepare(Term Formula);

  /// Decides the conjunction of the given premises. Unknown on
  /// budget/cancellation.
  SolverResult checkUnder(const std::vector<Handle> &Assumed);

  /// True iff the active premises are jointly unsatisfiable. Unknown counts
  /// as "not proven", matching QueryEngine::isUnsat.
  bool isUnsatUnder(const std::vector<Handle> &Assumed) {
    return checkUnder(Assumed) == SolverResult::Unsat;
  }

private:
  /// Epoch reset threshold: with this many SAT vars accumulated, the next
  /// query rebuilds the solver from the stored terms.
  static constexpr uint32_t kEpochVarLimit = 1024;
  /// Countermodels kept per session. On perfbench solver_suites, K = 1, 4,
  /// 8 and 16 left 38.4k, 34.1k, 33.9k and 33.7k of 46.2k session solves
  /// per pass; 8 and 16 tie on pass time, and every Unsat query pays for
  /// each stored model it is evaluated on.
  static constexpr size_t kModelRing = 8;

  Solver &solver();
  void flushCounters();
  /// True iff a stored model satisfies Conj (counted and clocked).
  bool modelAnswers(Term Conj);
  /// Publishes Result for the premise set Key and its conjunction Conj,
  /// unless cancellation has fired.
  void remember(std::vector<uint32_t> Key, Term Conj, SolverResult Result);

  QueryEngine &QE;
  std::unique_ptr<Solver> S;
  std::vector<Term> HandleTerms;
  std::unordered_map<Term, Handle, TermIdHash> HandleOf;
  std::unordered_map<std::vector<uint32_t>, SolverResult, IdVecHash> Memo;
  /// Ring of the last kModelRing Sat models; NextModel is the slot the next
  /// one overwrites once the ring is full.
  std::vector<Assignment> Models;
  size_t NextModel = 0;
  /// Counter baselines for delta reporting into the engine.
  uint64_t SeenRounds = 0;
  uint64_t SeenRetained = 0;
  uint64_t SeenWarm = 0;
};

} // namespace smt
} // namespace seqver

#endif // SEQVER_SMT_SOLVER_H
