//===- reduction/Commutativity.h - Statement commutativity ----------------===//
///
/// \file
/// The commutativity relation over program statements (Sec. 4, Sec. 7).
/// Mirrors GemCutter's layering (Sec. 8), extended with a solver-free
/// middle tier:
///
///   Syntactic -> Static -> Semantic
///
/// 1. Syntactic: neither action writes a variable accessed by the other.
/// 2. Static: the same proof obligations as the semantic tier, discharged
///    by constant folding and interval reasoning (analysis::
///    StaticCommutativity). A "commute" here provably implies the semantic
///    answer; anything undecided falls through.
/// 3. Semantic: SMT equivalence of the two symbolic compositions, including
///    *conditional* commutativity under a context assertion phi (Def. 7.3).
///
/// Whenever a tier cannot decide a query, the next tier runs; if the solver
/// itself cannot decide, the actions are conservatively declared
/// non-commutative (always sound). The static and semantic tiers discharge
/// one set of obligations per letter pair, composed once by
/// prog::commutationObligations and kept in the pair's record with its
/// answers.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_REDUCTION_COMMUTATIVITY_H
#define SEQVER_REDUCTION_COMMUTATIVITY_H

#include "analysis/StaticCommutativity.h"
#include "program/Program.h"
#include "program/Semantics.h"
#include "reduction/CommutOracle.h"
#include "runtime/Cancellation.h"
#include "smt/Solver.h"
#include "support/Statistics.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace seqver {
namespace red {

/// Decides (conditional) commutativity of program actions, with caching.
class CommutativityChecker {
public:
  enum class Mode : uint8_t {
    Syntactic, ///< footprint disjointness only
    Static,    ///< syntactic + solver-free obligation check, no SMT
    Semantic,  ///< all tiers; SMT settles what the static tier cannot
    Full,      ///< test-only: all pairs from different threads commute
  };

  CommutativityChecker(const prog::ConcurrentProgram &P,
                       smt::QueryEngine &QE, Mode M)
      : P(P), QE(QE), M(M) {
    if (M == Mode::Static || M == Mode::Semantic)
      Static = std::make_unique<analysis::StaticCommutativity>(P);
  }

  /// Routes per-tier counters (commut_queries, commut_syntactic,
  /// commut_static, commut_semantic, commut_cache_hits) into Sink; the
  /// counters self-register on first use. Null disables reporting.
  void setStatistics(Statistics *Sink) { Stats = Sink; }

  /// Adds a cancellation token to poll before every semantic (SMT) query.
  /// When any watched token requests a stop, undecided queries short-
  /// circuit to "non-commutative" — conservative and sound — without
  /// being cached, so a later non-cancelled run re-decides them.
  void watchCancellation(const runtime::CancellationToken *Token) {
    if (Token)
      Watched.push_back(Token);
  }

  /// Installs the shared oracle (CommutOracle.h) as a second-level cache
  /// between the private per-checker cache and the static tier: misses
  /// consult it under the manager-independent canonical key, and proven
  /// answers are published back. Publication is restricted to answers
  /// that are pure functions of the key — interval-tier proofs, semantic
  /// results, and the context-free screen's verdicts. Location-dependent
  /// proofs (octagon/Karr sub-tiers, which assume the letters' source-
  /// location invariants) and undecided answers (Mode::Static
  /// fall-throughs, cancelled queries) are never published: the former are
  /// invisible to the location-blind key, the latter are conservative
  /// placeholders, not facts. Null detaches. Counters: commut_shared_hits
  /// / commut_shared_misses / commut_shared_subsumed /
  /// commut_shared_stores.
  void setSharedOracle(CommutOracle *Oracle) { Shared = Oracle; }

  /// Enables incremental SMT: one smt::Session per letter pair, created on
  /// the pair's first semantic query. The obligations are encoded once as
  /// assumable premises; each context phi is just another assumption, so
  /// every re-query of the pair under a new context reuses the encoding,
  /// learned clauses and theory lemmas. Off by default (the fresh-instance
  /// path through QueryEngine::isUnsat); verdicts are identical either way.
  void setIncremental(bool On) { Incremental = On; }

  /// Disables the static tier (for tier-comparison runs; Semantic mode then
  /// behaves exactly like the historical two-tier checker).
  void disableStaticTier() { Static.reset(); }
  analysis::StaticCommutativity *staticTier() { return Static.get(); }

  /// Installs invariant sources on the static tier, enabling its
  /// conditional sub-tiers (octagon, Karr): obligations the interval pass
  /// leaves open are retried under the invariants of both letters' source
  /// locations, conjoined cumulatively in list order. See
  /// StaticCommutativity::decide for the soundness argument. No-op when
  /// the static tier is disabled; an empty list clears.
  void
  setInvariantContext(std::vector<const analysis::InvariantSource *> Sources) {
    if (Static)
      Static->setInvariantContext(std::move(Sources));
  }

  /// Unconditional commutativity a ~ b.
  bool commutes(automata::Letter A, automata::Letter B) {
    return commutesUnder(nullptr, A, B);
  }

  /// Conditional commutativity a ~_phi b (Def. 7.3); Phi == nullptr means
  /// phi = true. Monotone: if a ~_phi b then a ~_psi b for stronger psi
  /// (guaranteed by the semantics, not just the cache).
  bool commutesUnder(smt::Term Phi, automata::Letter A, automata::Letter B);

  Mode mode() const { return M; }
  uint64_t numSemanticChecks() const { return SemanticChecks; }
  /// Queries the static tier proved commuting (and the solver never saw).
  uint64_t numStaticProofs() const {
    return Static ? Static->numProofs() : 0;
  }
  /// Distinct (pair, context) answers held by the pair records (regression
  /// seam for the nullptr-vs-mkTrue key canonicalization).
  size_t numCachedQueries() const { return NumAnswers; }

private:
  struct PairRecord;
  /// The record of (MinL, MaxL), created with its obligations on first use.
  PairRecord &record(automata::Letter MinL, automata::Letter MaxL);
  /// Stores Answer as R's answer under Phi and returns it.
  bool remember(PairRecord &R, smt::Term Phi, bool Answer);
  bool semanticCheck(smt::Term Phi, PairRecord &R);
  /// Runs the unsat checks of R's obligations strengthened by Context; true
  /// iff every obligation is discharged (false may be a solver give-up). In
  /// incremental mode this lazily opens the pair's session and routes the
  /// checks through it.
  bool dischargeObligations(smt::Term Context, PairRecord &R);
  /// Canonical key of the (already Phi-canonicalized, letter-ordered)
  /// query; the per-letter action texts and per-term Phi texts are
  /// memoized, so repeat queries hash without re-rendering.
  persist::Fingerprint sharedKey(smt::Term Phi, automata::Letter MinL,
                                 automata::Letter MaxL);
  /// Publishes a proven answer to the shared oracle (no-op when detached).
  void publishShared(const persist::Fingerprint &Key, bool Commutes);
  void count(const char *Name) {
    if (Stats)
      Stats->add(Name);
  }
  bool stopRequested() const {
    for (const runtime::CancellationToken *T : Watched)
      if (T->stopRequested())
        return true;
    return false;
  }

  const prog::ConcurrentProgram &P;
  smt::QueryEngine &QE;
  Mode M;
  std::unique_ptr<analysis::StaticCommutativity> Static;
  Statistics *Stats = nullptr;
  CommutOracle *Shared = nullptr;
  std::vector<const runtime::CancellationToken *> Watched;
  /// Memoized canonical action texts (by letter) and context texts (by
  /// interned term) for the shared-oracle key.
  std::map<automata::Letter, std::string> ActionTexts;
  std::map<smt::Term, std::string> PhiTexts;
  /// Everything the checker knows about one letter pair (min, max).
  struct PairRecord {
    /// The pair's obligations, composed once and discharged by both the
    /// static and the semantic tier under every context.
    prog::CommutationObligations Obl;
    /// The context-free screen's memoized verdict: whether the obligations
    /// are unsatisfiable with *no* context at all. Commutes is the
    /// strongest possible answer — unsatisfiability is monotone under
    /// added conjuncts, so the pair commutes under *every* Phi — and is
    /// what the shared oracle stores under the pair's context-free key.
    /// Dependent (which may be a solver give-up) only says the trivial
    /// context could not discharge the obligations; stronger contexts are
    /// still checked individually.
    enum class CtxFree : uint8_t { Unknown, Commutes, Dependent };
    CtxFree CF = CtxFree::Unknown;
    bool CFPublished = false; ///< context-free key already sent to oracle
    /// Incremental mode only: the pair's solver session and the premise
    /// handles of the obligations (created on first semantic query).
    std::unique_ptr<smt::Session> Sess;
    smt::Session::Handle HGuardsDiffer = 0;
    smt::Session::Handle HCommonGuard = 0;
    std::vector<smt::Session::Handle> HValuesDiffer;
    /// Answers by context. A literal `true` context is canonicalized to
    /// nullptr before keying, so the unconditional answer is shared with
    /// trivial-context callers.
    std::map<smt::Term, bool> Answers;
  };
  std::map<std::pair<automata::Letter, automata::Letter>, PairRecord> Pairs;
  size_t NumAnswers = 0;
  uint64_t SemanticChecks = 0;
  bool Incremental = false;
};

} // namespace red
} // namespace seqver

#endif // SEQVER_REDUCTION_COMMUTATIVITY_H
