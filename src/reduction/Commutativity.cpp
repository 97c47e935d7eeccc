//===- reduction/Commutativity.cpp - Statement commutativity --------------===//

#include "reduction/Commutativity.h"

#include <algorithm>

using namespace seqver;
using namespace seqver::red;
using seqver::automata::Letter;
using seqver::prog::Action;
using seqver::smt::Term;
using seqver::smt::TermManager;

bool CommutativityChecker::commutesUnder(Term Phi, Letter A, Letter B) {
  const Action &ActA = P.action(A);
  const Action &ActB = P.action(B);
  // Statements of the same thread never commute (Sec. 4).
  if (ActA.ThreadId == ActB.ThreadId)
    return false;
  if (M == Mode::Full)
    return true;
  count("commut_queries");

  // A literal `true` context is the unconditional query: canonicalize it
  // to nullptr so both spellings share one cache (and one oracle) entry.
  if (Phi && Phi->kind() == smt::TermKind::BoolConst && Phi->boolValue())
    Phi = nullptr;

  // Syntactic sufficient condition is independent of Phi.
  if (!ActA.footprintConflictsWith(ActB)) {
    count("commut_syntactic");
    return true;
  }
  if (M == Mode::Syntactic)
    return false;

  Letter MinL = std::min(A, B), MaxL = std::max(A, B);
  PairRecord &R = record(MinL, MaxL);
  auto It = R.Answers.find(Phi);
  if (It != R.Answers.end()) {
    count("commut_cache_hits");
    return It->second;
  }

  // Second-level shared oracle (CommutOracle.h): a manager-independent
  // lookup over the canonical query text, fed by every checker sharing the
  // table — portfolio workers and earlier rounds. A hit is an already-
  // proven answer; copy it into the pair's record so repeat queries stay
  // pointer-keyed.
  persist::Fingerprint SKey;
  if (Shared) {
    SKey = sharedKey(Phi, MinL, MaxL);
    switch (Shared->lookup(SKey)) {
    case OracleAnswer::Commutes:
      count("commut_shared_hits");
      return remember(R, Phi, true);
    case OracleAnswer::Dependent:
      count("commut_shared_hits");
      return remember(R, Phi, false);
    case OracleAnswer::Unknown:
      // Subsumption fallback: a pair proven to commute with *no* context
      // commutes under every Phi (unsatisfiable obligations stay
      // unsatisfiable when conjuncts are added), so the pair's
      // context-free entry answers this query too. Only the positive
      // transfers — "dependent under true" says nothing about a stronger
      // context.
      if (Phi && Shared->lookup(sharedKey(nullptr, MinL, MaxL)) ==
                     OracleAnswer::Commutes) {
        count("commut_shared_hits");
        count("commut_shared_subsumed");
        return remember(R, Phi, true);
      }
      count("commut_shared_misses");
      break;
    }
  }

  // The private context-free screen (semanticCheck) may already have
  // settled this pair for every context — cheaper than re-running even the
  // static tier.
  if (R.CF == PairRecord::CtxFree::Commutes) {
    count("commut_cache_hits");
    return remember(R, Phi, true);
  }

  // Solver-free middle tier: proves the same obligations the semantic tier
  // would hand to SMT (interval sub-tier), or proves them strengthened by
  // octagon / Karr location invariants (conditional sub-tiers) — counted
  // separately because the latter are a genuine extension, not just an SMT
  // filter.
  if (Static) {
    switch (Static->decide(Phi, A, B, R.Obl)) {
    case analysis::StaticTierVerdict::Interval:
      count("commut_static");
      publishShared(SKey, true);
      return remember(R, Phi, true);
    case analysis::StaticTierVerdict::Octagon:
      // Octagon and Karr proofs conjoin *location* invariants of the two
      // letters' source locations — facts about where the letters sit in
      // the CFG, which the location-blind canonical key cannot see. Two
      // pairs with identical action text at different locations may get
      // different invariant-conditional answers, so these proofs stay in
      // the private (letter-keyed) record and are never published.
      count("commut_octagon");
      return remember(R, Phi, true);
    case analysis::StaticTierVerdict::Karr:
      count("commut_karr");
      return remember(R, Phi, true);
    case analysis::StaticTierVerdict::Unknown:
      break;
    }
  }
  if (M == Mode::Static) {
    // No solver available: undecided pairs are conservatively dependent.
    // Private record only — "undecided here" is not a fact about the
    // query, so it must not reach checkers that do have a solver.
    return remember(R, Phi, false);
  }

  // Cancellation/deadline poll before handing the query to the solver: a
  // cancelled run answers "dependent" (sound — it only weakens the
  // reduction) and skips the record *and* the shared oracle, so a live run
  // re-decides the pair instead of inheriting a panic answer.
  if (stopRequested()) {
    count("commut_cancelled");
    return false;
  }

  count("commut_semantic");
  bool Result = semanticCheck(Phi, R);
  // A negative computed while a cancellation raced in may reflect an
  // interrupted solver, not the query: drop it exactly like the pre-check
  // above — no record, no publication — so a live run re-decides.
  if (!Result && stopRequested()) {
    count("commut_cancelled");
    return false;
  }
  remember(R, Phi, Result);
  // A negative may be a solver give-up rather than a disproof — still
  // sound to share (consumers only weaken the reduction on "dependent").
  publishShared(SKey, Result);
  // The context-free screen inside semanticCheck settles the pair for
  // every context at once; publish that stronger fact under the pair's
  // context-free key, where any worker with any Phi can find it.
  if (Shared && Phi && R.CF != PairRecord::CtxFree::Unknown &&
      !R.CFPublished) {
    R.CFPublished = true;
    publishShared(sharedKey(nullptr, MinL, MaxL),
                  R.CF == PairRecord::CtxFree::Commutes);
  }
  return Result;
}

CommutativityChecker::PairRecord &
CommutativityChecker::record(Letter MinL, Letter MaxL) {
  auto [It, Inserted] = Pairs.try_emplace({MinL, MaxL});
  if (Inserted)
    It->second.Obl = prog::commutationObligations(
        QE.termManager(), P.action(MinL), P.action(MaxL));
  return It->second;
}

bool CommutativityChecker::remember(PairRecord &R, Term Phi, bool Answer) {
  if (R.Answers.emplace(Phi, Answer).second)
    ++NumAnswers;
  return Answer;
}

persist::Fingerprint CommutativityChecker::sharedKey(Term Phi, Letter MinL,
                                                     Letter MaxL) {
  const TermManager &TM = P.termManager();
  auto TextOf = [&](Letter L) -> const std::string & {
    auto [It, Inserted] = ActionTexts.try_emplace(L);
    if (Inserted)
      It->second = canonicalActionText(TM, P.action(L));
    return It->second;
  };
  static const std::string TrueText = "true";
  const std::string *PhiText = &TrueText;
  if (Phi) {
    auto [It, Inserted] = PhiTexts.try_emplace(Phi);
    if (Inserted)
      It->second = TM.str(Phi);
    PhiText = &It->second;
  }
  return CommutOracle::makeKey(TextOf(MinL), TextOf(MaxL), *PhiText);
}

void CommutativityChecker::publishShared(const persist::Fingerprint &Key,
                                         bool Commutes) {
  if (!Shared)
    return;
  Shared->publish(Key, Commutes);
  count("commut_shared_stores");
}

bool CommutativityChecker::semanticCheck(Term Phi, PairRecord &R) {
  ++SemanticChecks;
  // Context-free screen, once per pair: discharge the obligations with no
  // context at all. A positive is the strongest possible answer — the
  // pair commutes under *every* Phi (monotonicity of unsat under added
  // conjuncts) — and it is what commutesUnder publishes to the shared
  // oracle under the pair's context-free key. Only a Dependent verdict
  // falls through to the per-Phi check below.
  if (R.CF == PairRecord::CtxFree::Unknown)
    R.CF = dischargeObligations(QE.termManager().mkTrue(), R)
               ? PairRecord::CtxFree::Commutes
               : PairRecord::CtxFree::Dependent;
  if (R.CF == PairRecord::CtxFree::Commutes)
    return true;
  if (!Phi)
    return false;
  return dischargeObligations(Phi, R);
}

bool CommutativityChecker::dischargeObligations(Term Context, PairRecord &R) {
  TermManager &TM = QE.termManager();
  const prog::CommutationObligations &Obl = R.Obl;
  if (!Incremental) {
    // Fresh-instance path: one throwaway solver per query, results cached
    // at the formula level inside the engine.
    // Guards must agree under the context: Context /\ (G_ab xor G_ba) unsat.
    if (!QE.isUnsat(TM.mkAnd(Context, Obl.GuardsDiffer)))
      return false;
    // Values must agree under the context and the (now common) guard.
    for (Term ValuesDiffer : Obl.ValuesDiffer)
      if (!QE.isUnsat(TM.mkAnd({Context, Obl.CommonGuard, ValuesDiffer})))
        return false;
    return true;
  }

  // Incremental path: the pair's session encodes each obligation once; the
  // context is one more assumable premise, so checks under a new Phi reuse
  // everything the previous contexts taught the solver. An Unknown answer
  // (budget or cancellation) reads as "not discharged", exactly like the
  // fresh path's isUnsat.
  if (!R.Sess) {
    R.Sess = QE.openSession();
    R.HGuardsDiffer = R.Sess->prepare(Obl.GuardsDiffer);
    R.HCommonGuard = R.Sess->prepare(Obl.CommonGuard);
    R.HValuesDiffer.reserve(Obl.ValuesDiffer.size());
    for (Term ValuesDiffer : Obl.ValuesDiffer)
      R.HValuesDiffer.push_back(R.Sess->prepare(ValuesDiffer));
  }
  smt::Session::Handle HCtx = R.Sess->prepare(Context);
  if (!R.Sess->isUnsatUnder({HCtx, R.HGuardsDiffer}))
    return false;
  for (smt::Session::Handle HValuesDiffer : R.HValuesDiffer)
    if (!R.Sess->isUnsatUnder({HCtx, R.HCommonGuard, HValuesDiffer}))
      return false;
  return true;
}
