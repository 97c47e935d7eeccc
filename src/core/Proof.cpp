//===- core/Proof.cpp - Floyd/Hoare proof automaton -----------------------===//

#include "core/Proof.h"

#include <algorithm>
#include <cassert>

using namespace seqver;
using namespace seqver::core;
using seqver::automata::Letter;
using seqver::smt::Term;

ProofAutomaton::ProofAutomaton(smt::TermManager &TM, smt::QueryEngine &QE,
                               prog::FreshVarSource &Fresh,
                               const prog::ConcurrentProgram &P)
    : TM(TM), QE(QE), Fresh(Fresh), P(P) {
  // Predicate 0 is always "false".
  Predicates.push_back(TM.mkFalse());
  PredicateIds.emplace(TM.mkFalse(), FalseId);
}

uint32_t ProofAutomaton::addPredicate(Term Predicate) {
  auto It = PredicateIds.find(Predicate);
  if (It != PredicateIds.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(Predicates.size());
  Predicates.push_back(Predicate);
  PredicateIds.emplace(Predicate, Id);
  return Id;
}

size_t ProofAutomaton::addSeedPredicates(const std::vector<Term> &Seeds) {
  size_t Added = 0;
  for (Term Seed : Seeds) {
    if (Seed == TM.mkTrue() || Seed == TM.mkFalse())
      continue;
    size_t Before = Predicates.size();
    addPredicate(Seed);
    Added += Predicates.size() - Before;
  }
  return Added;
}

Term ProofAutomaton::conjunction(const PredSet &S) {
  auto It = ConjCache.find(S);
  if (It != ConjCache.end())
    return It->second;
  std::vector<Term> Conjuncts;
  Conjuncts.reserve(S.size());
  for (uint32_t Id : S)
    Conjuncts.push_back(Predicates[Id]);
  Term Result = TM.mkAnd(std::move(Conjuncts));
  ConjCache.emplace(S, Result);
  return Result;
}

bool ProofAutomaton::hoareHolds(HoareSession &HS, Term Pre, uint32_t PostId,
                                Term Post) {
  // Same fast paths as QueryEngine::implies, so the incremental gate gives
  // literally the verdicts the fresh path would.
  if (Pre == TM.mkFalse() || Post == TM.mkTrue() || Pre == Post)
    return true;
  if (!HS.Sess)
    HS.Sess = QE.openSession();
  auto [It, Inserted] = HS.NegPost.try_emplace(PostId);
  if (Inserted)
    It->second = HS.Sess->prepare(TM.mkNot(Post));
  return HS.Sess->isUnsatUnder({HS.Sess->prepare(Pre), It->second});
}

PredSet ProofAutomaton::initialSet() {
  Term Init = P.initialConstraint();
  PredSet Out;
  for (uint32_t Id = 0; Id < Predicates.size(); ++Id) {
    if (!isEnabled(Id))
      continue;
    ++HoareQueries;
    bool Holds = Incremental
                     ? hoareHolds(InitSession, Init, Id, Predicates[Id])
                     : QE.implies(Init, Predicates[Id]);
    if (Holds)
      Out.push_back(Id);
  }
  return Out;
}

Term ProofAutomaton::wpCached(Letter L, uint32_t PredId) {
  auto Key = std::make_pair(L, PredId);
  auto It = WpCache.find(Key);
  if (It != WpCache.end())
    return It->second;
  Term Wp = prog::wpAction(TM, P.action(L), Predicates[PredId], Fresh);
  WpCache.emplace(Key, Wp);
  return Wp;
}

PredSet ProofAutomaton::step(const PredSet &S, Letter L) {
  PredSet Out;
  Term Pre = conjunction(S);
  if (Pre == TM.mkFalse()) {
    // False is preserved by every action.
    Out.push_back(FalseId);
  } else {
    HoareSession *HS = Incremental ? &LetterSessions[L] : nullptr;
    for (uint32_t Id = 0; Id < Predicates.size(); ++Id) {
      if (!isEnabled(Id))
        continue;
      ++HoareQueries;
      Term Wp = wpCached(L, Id);
      bool Holds = HS ? hoareHolds(*HS, Pre, Id, Wp) : QE.implies(Pre, Wp);
      if (Holds)
        Out.push_back(Id);
    }
  }
  return Out;
}

void ProofAutomaton::setEnabledMask(std::vector<bool> Mask) {
  assert((Mask.empty() || Mask.size() == Predicates.size()) &&
         "mask size mismatch");
  assert((Mask.empty() || Mask[FalseId]) && "false must stay enabled");
  EnabledMask = std::move(Mask);
}

size_t ProofAutomaton::numEnabled() const {
  if (EnabledMask.empty())
    return Predicates.size();
  size_t Count = 0;
  for (bool Enabled : EnabledMask)
    Count += Enabled;
  return Count;
}
