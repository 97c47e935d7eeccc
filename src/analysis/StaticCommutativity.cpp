//===- analysis/StaticCommutativity.cpp - SMT-free commutativity tier -----===//

#include "analysis/StaticCommutativity.h"

#include "analysis/InvariantSource.h"
#include "analysis/KarrProp.h"
#include "analysis/OctagonProp.h"
#include "analysis/Refine.h"

#include <cstring>

using namespace seqver;
using namespace seqver::analysis;
using seqver::automata::Letter;
using seqver::smt::Term;
using seqver::smt::TermKind;
using seqver::smt::TermManager;

bool seqver::analysis::staticallyUnsat(const TermManager &TM, Term Formula) {
  if (Formula->kind() == TermKind::BoolConst)
    return !Formula->boolValue();
  // A disjunction is unsat iff every branch is.
  if (Formula->kind() == TermKind::Or) {
    for (Term C : Formula->children())
      if (!staticallyUnsat(TM, C))
        return false;
    return true;
  }

  // Bounds propagation over the literal conjuncts. The environment records
  // necessary consequences of the literals, so a contradiction — during
  // refinement or when re-evaluating the whole formula under the final
  // environment — proves unsatisfiability. A few rounds let bounds flow
  // across atoms (x <= y, y <= 3, x >= 5); the round count only limits
  // precision, never soundness.
  auto All = [](Term) { return true; };
  IntervalFact Env;
  const std::vector<Term> Single{Formula};
  const std::vector<Term> &Conjuncts =
      Formula->kind() == TermKind::And ? Formula->children() : Single;
  for (int Round = 0; Round < 3; ++Round)
    for (Term C : Conjuncts)
      if (!refineLiteral(C, Env, All))
        return true;
  return evalTri(TM, Formula, FactEnv{Env}) == Tri::False;
}

bool seqver::analysis::staticallyUnsatRelational(const TermManager &TM,
                                                 Term Formula) {
  if (Formula->kind() == TermKind::BoolConst)
    return !Formula->boolValue();
  // A disjunction is unsat iff every branch is.
  if (Formula->kind() == TermKind::Or) {
    for (Term C : Formula->children())
      if (!staticallyUnsatRelational(TM, C))
        return false;
    return true;
  }
  std::vector<Term> Vars;
  TM.collectVars(Formula, Vars);
  if (Vars.empty() || Vars.size() > RelationalVarCap)
    return false;
  Octagon O(std::move(Vars));
  for (size_t K = 0; K < O.vars().size(); ++K)
    if (O.vars()[K]->sort() == smt::Sort::Bool) {
      O.addUnary(static_cast<int>(K), +1, 1);
      O.addUnary(static_cast<int>(K), -1, 0);
    }
  if (!octagonAssume(O, TM, Formula, 3))
    return true;
  return octagonEval(TM, O, Formula) == Tri::False;
}

bool seqver::analysis::staticallyUnsatAffine(const TermManager &TM,
                                             Term Formula) {
  if (Formula->kind() == TermKind::BoolConst)
    return !Formula->boolValue();
  // A disjunction is unsat iff every branch is.
  if (Formula->kind() == TermKind::Or) {
    for (Term C : Formula->children())
      if (!staticallyUnsatAffine(TM, C))
        return false;
    return true;
  }
  std::vector<Term> Vars;
  TM.collectVars(Formula, Vars);
  if (Vars.empty() || Vars.size() > AffineVarCap)
    return false;
  AffineSystem S(std::move(Vars));
  if (!karrAssume(S, TM, Formula))
    return true;
  return karrEval(TM, S, Formula) == Tri::False;
}

void StaticCommutativity::setInvariantContext(
    std::vector<const InvariantSource *> NewSources) {
  Sources = std::move(NewSources);
  SrcOf.assign(P.numLetters(), std::nullopt);
  if (Sources.empty())
    return;
  std::vector<int> EdgeCount(P.numLetters(), 0);
  for (int T = 0; T < P.numThreads(); ++T) {
    const prog::ThreadCfg &Cfg = P.thread(T);
    for (prog::Location L = 0; L < Cfg.numLocations(); ++L)
      for (const auto &[EdgeLetter, To] : Cfg.Edges[L]) {
        (void)To;
        if (++EdgeCount[EdgeLetter] == 1)
          SrcOf[EdgeLetter] = std::make_pair(T, L);
        else
          SrcOf[EdgeLetter] = std::nullopt; // ambiguous source location
      }
  }
}

Term StaticCommutativity::invariantFor(const InvariantSource &S,
                                       Letter L) const {
  if (L >= SrcOf.size() || !SrcOf[L])
    return TM.mkTrue();
  return S.invariantAt(SrcOf[L]->first, SrcOf[L]->second);
}

StaticTierVerdict
StaticCommutativity::decide(Term Phi, Letter A, Letter B,
                            const prog::CommutationObligations &Obl) {
  ++Queries;
  Term Context = Phi ? Phi : TM.mkTrue();
  std::vector<Term> Obligations;
  Obligations.reserve(1 + Obl.ValuesDiffer.size());
  Obligations.push_back(TM.mkAnd(Context, Obl.GuardsDiffer));
  for (Term ValuesDiffer : Obl.ValuesDiffer)
    Obligations.push_back(TM.mkAnd({Context, Obl.CommonGuard, ValuesDiffer}));

  // Tier 1: plain interval reasoning over the obligations as-is. A proof
  // here implies the semantic (SMT) answer for the same phi.
  std::vector<Term> Open;
  for (Term Ob : Obligations)
    if (!staticallyUnsat(TM, Ob))
      Open.push_back(Ob);
  if (Open.empty()) {
    ++Proofs;
    return StaticTierVerdict::Interval;
  }

  // Invariant tiers: strengthen the open obligations with each source's
  // location invariants at both letters' source locations (see decide()
  // for why this is sound), cumulatively in registry order, retrying with
  // the relational and affine deciders as well. An obligation closed by an
  // earlier source stays closed; the source whose pass empties the open
  // set names the verdict.
  if (Sources.empty())
    return StaticTierVerdict::Unknown;
  Term Inv = TM.mkTrue();
  for (const InvariantSource *S : Sources) {
    Term Add = TM.mkAnd(invariantFor(*S, A), invariantFor(*S, B));
    if (Add == TM.mkTrue())
      continue; // nothing new to strengthen with
    Inv = TM.mkAnd(Inv, Add);
    bool IsKarr = std::strcmp(S->name(), "karr") == 0;
    ++(IsKarr ? KarrQueries : OctQueries);
    std::vector<Term> StillOpen;
    for (Term Ob : Open) {
      Term Strengthened = TM.mkAnd(Ob, Inv);
      if (!staticallyUnsat(TM, Strengthened) &&
          !staticallyUnsatRelational(TM, Strengthened) &&
          !staticallyUnsatAffine(TM, Strengthened))
        StillOpen.push_back(Ob);
    }
    Open = std::move(StillOpen);
    if (Open.empty()) {
      ++(IsKarr ? KarrProofs : OctProofs);
      ++Proofs;
      return IsKarr ? StaticTierVerdict::Karr : StaticTierVerdict::Octagon;
    }
  }
  return StaticTierVerdict::Unknown;
}
