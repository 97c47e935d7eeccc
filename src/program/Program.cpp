//===- program/Program.cpp - Concurrent program model ---------------------===//

#include "program/Program.h"

#include "automata/Explore.h"

#include <algorithm>
#include <cassert>

using namespace seqver;
using namespace seqver::prog;
using seqver::automata::Letter;
using seqver::smt::Term;

bool Action::writesVar(Term V) const {
  return std::binary_search(Writes.begin(), Writes.end(), V,
                            [](Term A, Term B) { return A->id() < B->id(); });
}

bool Action::readsVar(Term V) const {
  return std::binary_search(Reads.begin(), Reads.end(), V,
                            [](Term A, Term B) { return A->id() < B->id(); });
}

bool Action::footprintConflictsWith(const Action &Other) const {
  for (Term W : Writes)
    if (Other.writesVar(W) || Other.readsVar(W))
      return true;
  for (Term W : Other.Writes)
    if (readsVar(W))
      return true;
  return false;
}

void ThreadCfg::addEdge(Location From, Letter L, Location To) {
  assert(From < numLocations() && To < numLocations() && "bad location");
  assert(!IsErrorLoc[From] && "error locations have no outgoing edges");
  auto &List = Edges[From];
  auto It = std::lower_bound(
      List.begin(), List.end(), L,
      [](const std::pair<Letter, Location> &Entry, Letter Value) {
        return Entry.first < Value;
      });
  assert((It == List.end() || It->first != L) && "duplicate letter on edge");
  List.insert(It, {L, To});
}

bool ThreadCfg::containsAssert() const {
  for (bool IsError : IsErrorLoc)
    if (IsError)
      return true;
  return false;
}

namespace {

/// Computes sorted/unique read and write sets of an action.
void computeFootprint(const smt::TermManager &TM, Action &A) {
  std::vector<Term> Reads, Writes;
  for (const Prim &P : A.Prims) {
    switch (P.K) {
    case Prim::Kind::Assume:
      TM.collectVars(P.Guard, Reads);
      break;
    case Prim::Kind::AssignInt:
      Writes.push_back(P.Var);
      for (const auto &[Var, Coeff] : P.IntValue.Terms) {
        (void)Coeff;
        Reads.push_back(Var);
      }
      break;
    case Prim::Kind::AssignBool:
      Writes.push_back(P.Var);
      TM.collectVars(P.BoolValue, Reads);
      break;
    case Prim::Kind::Havoc:
      Writes.push_back(P.Var);
      break;
    }
  }
  auto ById = [](Term X, Term Y) { return X->id() < Y->id(); };
  std::sort(Reads.begin(), Reads.end(), ById);
  Reads.erase(std::unique(Reads.begin(), Reads.end()), Reads.end());
  std::sort(Writes.begin(), Writes.end(), ById);
  Writes.erase(std::unique(Writes.begin(), Writes.end()), Writes.end());
  A.Reads = std::move(Reads);
  A.Writes = std::move(Writes);
}

} // namespace

Letter ConcurrentProgram::addAction(Action A) {
  A.Letter = numLetters();
  computeFootprint(TM, A);
  Actions.push_back(std::move(A));
  return Actions.back().Letter;
}

int ConcurrentProgram::addThread(ThreadCfg Cfg) {
  Threads.push_back(std::move(Cfg));
  int Id = numThreads() - 1;
  // Every letter on this thread's edges must belong to this thread.
  for (const auto &List : Threads.back().Edges)
    for (const auto &[L, To] : List) {
      (void)To;
      assert(Actions[L].ThreadId == Id && "edge letter owned by other thread");
    }
  return Id;
}

void ConcurrentProgram::addGlobalInt(Term Var, int64_t Init) {
  Globals.push_back(Var);
  GlobalConstrained.push_back(true);
  InitialState.IntValues[Var] = Init;
}

void ConcurrentProgram::addGlobalBool(Term Var, bool Init) {
  Globals.push_back(Var);
  GlobalConstrained.push_back(true);
  InitialState.BoolValues[Var] = Init;
}

void ConcurrentProgram::addGlobalUnconstrained(Term Var) {
  Globals.push_back(Var);
  GlobalConstrained.push_back(false);
  if (Var->sort() == smt::Sort::Int)
    InitialState.IntValues[Var] = 0;
  else
    InitialState.BoolValues[Var] = false;
}

void ConcurrentProgram::setSpec(Term Pre, Term Post) {
  if (Pre)
    Requires = Pre;
  if (Post)
    Ensures = Post;
}

Term ConcurrentProgram::preCondition() const {
  return Requires ? Requires : TM.mkTrue();
}

Term ConcurrentProgram::postCondition() const {
  return Ensures ? Ensures : TM.mkTrue();
}

bool ConcurrentProgram::hasPostCondition() const {
  return Ensures && Ensures != TM.mkTrue();
}

bool ConcurrentProgram::isGlobalConstrained(Term Var) const {
  for (size_t I = 0; I < Globals.size(); ++I)
    if (Globals[I] == Var)
      return GlobalConstrained[I];
  return false;
}

bool ConcurrentProgram::removeEdge(int ThreadId, Location From, Letter L) {
  auto &List = Threads[static_cast<size_t>(ThreadId)].Edges[From];
  for (auto It = List.begin(); It != List.end(); ++It)
    if (It->first == L) {
      List.erase(It);
      return true;
    }
  return false;
}

void ConcurrentProgram::addEdge(int ThreadId, Location From, Letter L,
                                Location To) {
  assert(Actions[L].ThreadId == ThreadId && "edge letter owned by other thread");
  Threads[static_cast<size_t>(ThreadId)].addEdge(From, L, To);
}

uint32_t ConcurrentProgram::size() const {
  uint32_t Total = 0;
  for (const ThreadCfg &T : Threads)
    Total += T.numLocations();
  return Total;
}

Term ConcurrentProgram::initialConstraint() const {
  std::vector<Term> Conjuncts;
  for (size_t I = 0; I < Globals.size(); ++I) {
    if (!GlobalConstrained[I])
      continue;
    Term Var = Globals[I];
    if (Var->sort() == smt::Sort::Int) {
      smt::LinSum Sum = TM.sumOfVar(Var);
      Sum.Constant -= InitialState.intValue(Var);
      Conjuncts.push_back(TM.mkEqZero(Sum));
    } else {
      Conjuncts.push_back(InitialState.boolValue(Var) ? Var : TM.mkNot(Var));
    }
  }
  Conjuncts.push_back(preCondition());
  return TM.mkAnd(std::move(Conjuncts));
}

ProductState ConcurrentProgram::initialProductState() const {
  ProductState S;
  S.reserve(Threads.size());
  for (const ThreadCfg &T : Threads)
    S.push_back(T.InitialLoc);
  return S;
}

bool ConcurrentProgram::isErrorState(const ProductState &S) const {
  for (size_t I = 0; I < Threads.size(); ++I)
    if (Threads[I].IsErrorLoc[S[I]])
      return true;
  return false;
}

bool ConcurrentProgram::isAllExitState(const ProductState &S) const {
  for (size_t I = 0; I < Threads.size(); ++I)
    if (!Threads[I].isTerminal(S[I]) || Threads[I].IsErrorLoc[S[I]])
      return false;
  return true;
}

void ConcurrentProgram::enabledEdges(const ProductState &S,
                                     std::vector<Edge> &Out) const {
  Out.clear();
  if (isErrorState(S))
    return; // error states absorb: the violation witness is complete
  for (size_t I = 0; I < Threads.size(); ++I)
    for (const auto &[L, To] : Threads[I].Edges[S[I]])
      Out.push_back({L, static_cast<int>(I), To});
  // Letters are distinct across threads, so the order is total.
  std::sort(Out.begin(), Out.end(), [](const Edge &A, const Edge &B) {
    return A.Letter < B.Letter;
  });
}

std::vector<std::pair<Letter, ProductState>>
ConcurrentProgram::successors(const ProductState &S) const {
  std::vector<Edge> Enabled;
  enabledEdges(S, Enabled);
  std::vector<std::pair<Letter, ProductState>> Out;
  Out.reserve(Enabled.size());
  for (const Edge &E : Enabled) {
    ProductState Next = S;
    Next[static_cast<size_t>(E.Thread)] = E.Target;
    Out.emplace_back(E.Letter, std::move(Next));
  }
  return Out;
}

namespace {

struct ProductAutomaton {
  using StateType = ProductState;
  const ConcurrentProgram &P;
  AcceptMode Mode;

  StateType initialState() { return P.initialProductState(); }
  bool isAccepting(const StateType &S) {
    return Mode == AcceptMode::Error ? P.isErrorState(S)
                                     : P.isAllExitState(S);
  }
  std::vector<std::pair<Letter, StateType>> successors(const StateType &S) {
    return P.successors(S);
  }
};

} // namespace

automata::Dfa ConcurrentProgram::explicitProduct(AcceptMode Mode,
                                                 uint32_t MaxStates,
                                                 bool *Overflow) const {
  ProductAutomaton Impl{*this, Mode};
  auto Result = automata::materialize(Impl, numLetters(), MaxStates, Overflow);
  return std::move(Result.Automaton);
}

std::vector<std::string> ConcurrentProgram::letterNames() const {
  std::vector<std::string> Names;
  Names.reserve(Actions.size());
  for (const Action &A : Actions)
    Names.push_back(A.Name);
  return Names;
}
