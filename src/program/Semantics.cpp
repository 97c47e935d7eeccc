//===- program/Semantics.cpp - Symbolic semantics of actions --------------===//

#include "program/Semantics.h"

#include <algorithm>
#include <cassert>

using namespace seqver;
using namespace seqver::prog;
using seqver::smt::LinSum;
using seqver::smt::Sort;
using seqver::smt::Substitution;
using seqver::smt::Term;
using seqver::smt::TermManager;

Term seqver::prog::wpAction(TermManager &TM, const Action &A, Term Post,
                            FreshVarSource &Fresh) {
  Term Result = Post;
  // Fold the primitives right to left.
  for (size_t I = A.Prims.size(); I > 0; --I) {
    const Prim &P = A.Prims[I - 1];
    switch (P.K) {
    case Prim::Kind::Assume:
      Result = TM.mkImplies(P.Guard, Result);
      break;
    case Prim::Kind::AssignInt: {
      Substitution Subst;
      Subst.IntMap[P.Var] = P.IntValue;
      Result = TM.substitute(Result, Subst);
      break;
    }
    case Prim::Kind::AssignBool: {
      Substitution Subst;
      Subst.BoolMap[P.Var] = P.BoolValue;
      Result = TM.substitute(Result, Subst);
      break;
    }
    case Prim::Kind::Havoc: {
      Substitution Subst;
      if (P.Var->sort() == Sort::Int)
        Subst.IntMap[P.Var] = TM.sumOfVar(Fresh.fresh(Sort::Int));
      else
        Subst.BoolMap[P.Var] = Fresh.fresh(Sort::Bool);
      Result = TM.substitute(Result, Subst);
      break;
    }
    }
  }
  return Result;
}

LinSum SymbolicState::intValue(TermManager &TM, Term Var) const {
  auto It = Values.IntMap.find(Var);
  return It == Values.IntMap.end() ? TM.sumOfVar(Var) : It->second;
}

Term SymbolicState::boolValue(Term Var) const {
  auto It = Values.BoolMap.find(Var);
  return It == Values.BoolMap.end() ? Var : It->second;
}

SymbolicState seqver::prog::symbolicIdentity(TermManager &TM) {
  SymbolicState State;
  State.Guard = TM.mkTrue();
  return State;
}

void seqver::prog::applySymbolic(
    TermManager &TM, const Action &A, SymbolicState &State,
    std::map<std::pair<automata::Letter, size_t>, Term> &CanonicalHavoc) {
  for (size_t I = 0; I < A.Prims.size(); ++I) {
    const Prim &P = A.Prims[I];
    switch (P.K) {
    case Prim::Kind::Assume:
      // Evaluate the guard in the current symbolic state.
      State.Guard =
          TM.mkAnd(State.Guard, TM.substitute(P.Guard, State.Values));
      break;
    case Prim::Kind::AssignInt: {
      // Evaluate the rhs in the current state, then bind.
      LinSum Value = TM.sumOfConst(P.IntValue.Constant);
      for (const auto &[Var, Coeff] : P.IntValue.Terms)
        Value = TermManager::sumAdd(
            Value, TermManager::sumScale(State.intValue(TM, Var), Coeff));
      State.Values.IntMap[P.Var] = std::move(Value);
      break;
    }
    case Prim::Kind::AssignBool:
      State.Values.BoolMap[P.Var] =
          TM.substitute(P.BoolValue, State.Values);
      break;
    case Prim::Kind::Havoc: {
      auto Key = std::make_pair(A.Letter, I);
      auto It = CanonicalHavoc.find(Key);
      Term FreshVar;
      if (It != CanonicalHavoc.end()) {
        FreshVar = It->second;
      } else {
        FreshVar = TM.mkVar("havoc!" + std::to_string(A.Letter) + "!" +
                                std::to_string(I),
                            P.Var->sort());
        CanonicalHavoc.emplace(Key, FreshVar);
      }
      if (P.Var->sort() == Sort::Int)
        State.Values.IntMap[P.Var] = TM.sumOfVar(FreshVar);
      else
        State.Values.BoolMap[P.Var] = FreshVar;
      break;
    }
    }
  }
}

CommutationObligations
seqver::prog::commutationObligations(TermManager &TM, const Action &A,
                                     const Action &B) {
  const Action &First = A.Letter < B.Letter ? A : B;
  const Action &Second = A.Letter < B.Letter ? B : A;
  // Havoc primitives use canonical fresh variables keyed by (letter, prim
  // index), so the two orders produce comparable symbols.
  std::map<std::pair<automata::Letter, size_t>, Term> Havocs;
  SymbolicState AB = symbolicIdentity(TM);
  applySymbolic(TM, First, AB, Havocs);
  applySymbolic(TM, Second, AB, Havocs);
  SymbolicState BA = symbolicIdentity(TM);
  applySymbolic(TM, Second, BA, Havocs);
  applySymbolic(TM, First, BA, Havocs);

  CommutationObligations Obl;
  Obl.CommonGuard = AB.Guard;
  Obl.GuardsDiffer = TM.mkNot(TM.mkIff(AB.Guard, BA.Guard));

  // Final values of all written variables must agree.
  std::vector<Term> Written;
  Written.insert(Written.end(), First.Writes.begin(), First.Writes.end());
  Written.insert(Written.end(), Second.Writes.begin(), Second.Writes.end());
  std::sort(Written.begin(), Written.end(),
            [](Term X, Term Y) { return X->id() < Y->id(); });
  Written.erase(std::unique(Written.begin(), Written.end()), Written.end());
  Obl.ValuesDiffer.reserve(Written.size());
  for (Term Var : Written) {
    if (Var->sort() == Sort::Int)
      Obl.ValuesDiffer.push_back(
          TM.mkNot(TM.mkEq(AB.intValue(TM, Var), BA.intValue(TM, Var))));
    else
      Obl.ValuesDiffer.push_back(
          TM.mkNot(TM.mkIff(AB.boolValue(Var), BA.boolValue(Var))));
  }
  return Obl;
}
