//===- smt/LiaSolver.cpp - Linear integer arithmetic decisions ------------===//

#include "smt/LiaSolver.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace seqver;
using namespace seqver::smt;

namespace {

/// Collects the (deduplicated, id-sorted) variables of all sums.
std::vector<Term> collectVars(const std::vector<LiaAtom> &Atoms,
                              const std::vector<LinSum> &Diseqs) {
  std::vector<Term> Vars;
  auto AddSum = [&Vars](const LinSum &Sum) {
    for (const auto &[Var, Coeff] : Sum.Terms) {
      (void)Coeff;
      Vars.push_back(Var);
    }
  };
  for (const LiaAtom &Atom : Atoms)
    AddSum(Atom.Sum);
  for (const LinSum &Sum : Diseqs)
    AddSum(Sum);
  std::sort(Vars.begin(), Vars.end(),
            [](Term A, Term B) { return A->id() < B->id(); });
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  return Vars;
}

/// Builds the root tableau: one column per variable, one slack row per
/// atom, bounds carrying the atoms' constants.
void buildRoot(Simplex &Splx, const std::vector<LiaAtom> &Atoms,
               const std::vector<Term> &Vars) {
  std::map<Term, int> VarIndex;
  for (size_t I = 0; I < Vars.size(); ++I) {
    int Col = Splx.addVar();
    (void)Col;
    assert(Col == static_cast<int>(I) && "column indices drifted");
    VarIndex[Vars[I]] = static_cast<int>(I);
  }
  for (const LiaAtom &Atom : Atoms) {
    std::vector<std::pair<int, Rational>> Definition;
    Definition.reserve(Atom.Sum.Terms.size());
    for (const auto &[Var, Coeff] : Atom.Sum.Terms)
      Definition.emplace_back(VarIndex.at(Var), Rational(Coeff));
    int Slack = Splx.addSlack(Definition);
    // Sum + Constant <= 0 (or == 0) where Slack carries the variable part.
    Rational Bound(-Atom.Sum.Constant);
    Splx.setUpper(Slack, Bound);
    if (Atom.IsEq)
      Splx.setLower(Slack, Bound);
  }
}

} // namespace

LiaResult LiaSolver::branchAndBound(Simplex Root, size_t NumVars,
                                    std::vector<Rational> &ModelOut,
                                    uint64_t &NodeBudget) {
  // Depth-first search, left branch (x <= floor) first. A node whose left
  // child is feasible waits on Pending until that subtree comes back Unsat,
  // then takes its right branch (x >= ceil); the right child replaces its
  // parent, as nothing is left to try at the parent after it. Each child
  // copies the solved parent and tightens one bound, so its check()
  // re-pivots from the parent's basis instead of rebuilding the tableau.
  struct Node {
    Simplex Solved; ///< rationally feasible
    int Fractional; ///< the column branched on
  };
  std::vector<Node> Pending;
  Simplex Current = std::move(Root);
  auto FirstFractional = [NumVars](const Simplex &Solved) {
    for (size_t I = 0; I < NumVars; ++I)
      if (!Solved.value(static_cast<int>(I)).isIntegral())
        return static_cast<int>(I);
    return -1;
  };
  // Copies Parent with one bound tightened and solves it; true iff feasible.
  auto SolveChild = [this](const Simplex &Parent, int Col, bool Left,
                           Simplex &Child) {
    Child = Parent;
    const Rational &Value = Parent.value(Col);
    if (Left)
      Child.setUpper(Col, Rational(Value.floor()));
    else
      Child.setLower(Col, Rational(Value.ceil()));
    uint64_t Before = Child.numPivots();
    bool Sat = Child.check() == Simplex::Result::Sat;
    WarmPivots += Child.numPivots() - Before;
    return Sat;
  };

  Simplex Child;
  for (;;) {
    int Col = FirstFractional(Current);
    if (Col < 0) {
      ModelOut.resize(NumVars);
      for (size_t I = 0; I < NumVars; ++I)
        ModelOut[I] = Current.value(static_cast<int>(I));
      return LiaResult::Sat;
    }
    if (NodeBudget == 0)
      return LiaResult::Unknown;
    --NodeBudget;
    if (SolveChild(Current, Col, /*Left=*/true, Child)) {
      Pending.push_back({std::move(Current), Col});
      Current = std::move(Child);
      continue;
    }
    // The left subtree is Unsat: take the right branch, unwinding through
    // ancestors whose right branch is Unsat too.
    for (;;) {
      if (NodeBudget == 0)
        return LiaResult::Unknown;
      --NodeBudget;
      if (SolveChild(Current, Col, /*Left=*/false, Child)) {
        Current = std::move(Child);
        break;
      }
      if (Pending.empty())
        return LiaResult::Unsat;
      Current = std::move(Pending.back().Solved);
      Col = Pending.back().Fractional;
      Pending.pop_back();
    }
  }
}

LiaResult LiaSolver::check(const std::vector<LiaAtom> &Atoms,
                           const std::vector<LinSum> &Diseqs,
                           Assignment *Model, size_t *ViolatedDiseq) {
  std::vector<Term> Vars = collectVars(Atoms, Diseqs);
  uint64_t Budget = MaxNodes;
  if (Budget == 0)
    return LiaResult::Unknown;
  --Budget; // the root check is the first node

  Simplex Root;
  buildRoot(Root, Atoms, Vars);
  if (Root.check() != Simplex::Result::Sat)
    return LiaResult::Unsat;

  std::vector<Rational> Values;
  LiaResult Result =
      branchAndBound(std::move(Root), Vars.size(), Values, Budget);
  if (Result != LiaResult::Sat)
    return Result;

  Assignment Candidate;
  for (size_t I = 0; I < Vars.size(); ++I) {
    assert(Values[I].isIntegral() && "non-integral model escaped B&B");
    Candidate.IntValues[Vars[I]] = Values[I].num();
  }
  for (size_t I = 0; I < Diseqs.size(); ++I) {
    if (evalSum(Diseqs[I], Candidate) == 0) {
      if (ViolatedDiseq)
        *ViolatedDiseq = I;
      if (Model)
        *Model = std::move(Candidate);
      return LiaResult::Diseq;
    }
  }
  if (Model)
    *Model = std::move(Candidate);
  return LiaResult::Sat;
}

std::vector<size_t> LiaSolver::unsatCore(const std::vector<LiaAtom> &Atoms) {
  std::vector<size_t> Kept(Atoms.size());
  for (size_t I = 0; I < Atoms.size(); ++I)
    Kept[I] = I;

  // Deletion filter on a scratch solver, so the pivot statistic counts only
  // the decision checks: drop an atom if the rest stays Unsat. Unknown
  // results conservatively keep the atom (the core stays an
  // over-approximation, which is sound for blocking clauses).
  LiaSolver Scratch(MaxNodes);
  for (size_t I = 0; I < Kept.size();) {
    std::vector<LiaAtom> Candidate;
    Candidate.reserve(Kept.size() - 1);
    for (size_t K = 0; K < Kept.size(); ++K)
      if (K != I)
        Candidate.push_back(Atoms[Kept[K]]);
    if (Scratch.check(Candidate, {}, nullptr, nullptr) == LiaResult::Unsat)
      Kept.erase(Kept.begin() + static_cast<ptrdiff_t>(I));
    else
      ++I;
  }
  return Kept;
}
