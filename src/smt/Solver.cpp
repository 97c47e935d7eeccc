//===- smt/Solver.cpp - Lazy DPLL(T) solver facade ------------------------===//

#include "smt/Solver.h"

#include "support/Timer.h"

#include <algorithm>
#include <cassert>

using namespace seqver;
using namespace seqver::smt;

uint32_t Solver::atomVar(Term Atom) {
  auto It = AtomToVar.find(Atom);
  if (It != AtomToVar.end())
    return It->second;
  uint32_t Var = Sat.newVar();
  AtomToVar.emplace(Atom, Var);
  VarToAtom.resize(Var + 1, nullptr);
  VarToAtom[Var] = Atom;
  return Var;
}

Lit Solver::encode(Term Formula) {
  auto It = EncodingCache.find(Formula);
  if (It != EncodingCache.end())
    return It->second;

  Lit Result;
  switch (Formula->kind()) {
  case TermKind::BoolConst: {
    // A constant inside a composite only happens at the root (construction
    // folds them elsewhere); encode as a frozen fresh variable.
    uint32_t Var = Sat.newVar();
    VarToAtom.resize(Var + 1, nullptr);
    Sat.addClause({mkLit(Var, !Formula->boolValue())});
    Result = mkLit(Var, false);
    break;
  }
  case TermKind::BoolVar:
  case TermKind::AtomLe:
  case TermKind::AtomEq:
    Result = mkLit(atomVar(Formula), false);
    break;
  case TermKind::Not:
    Result = negate(encode(Formula->child(0)));
    break;
  case TermKind::And:
  case TermKind::Or: {
    bool IsAnd = Formula->kind() == TermKind::And;
    uint32_t Gate = Sat.newVar();
    VarToAtom.resize(Gate + 1, nullptr);
    Lit GateLit = mkLit(Gate, false);
    std::vector<Lit> Children;
    Children.reserve(Formula->children().size());
    for (Term Child : Formula->children())
      Children.push_back(encode(Child));
    // And: (g -> ci) for all i; (c1 & .. & cn -> g).
    // Or is the dual.
    std::vector<Lit> BigClause;
    BigClause.push_back(IsAnd ? GateLit : negate(GateLit));
    for (Lit Child : Children) {
      Sat.addClause({negate(IsAnd ? GateLit : Child),
                     IsAnd ? Child : GateLit});
      BigClause.push_back(IsAnd ? negate(Child) : Child);
    }
    Sat.addClause(std::move(BigClause));
    Result = GateLit;
    break;
  }
  case TermKind::Iff: {
    uint32_t Gate = Sat.newVar();
    VarToAtom.resize(Gate + 1, nullptr);
    Lit G = mkLit(Gate, false);
    Lit A = encode(Formula->child(0));
    Lit B = encode(Formula->child(1));
    Sat.addClause({negate(G), negate(A), B});
    Sat.addClause({negate(G), A, negate(B)});
    Sat.addClause({G, A, B});
    Sat.addClause({G, negate(A), negate(B)});
    Result = G;
    break;
  }
  default:
    assert(false && "unhandled kind in Tseitin encoding");
    Result = 0;
    break;
  }
  EncodingCache.emplace(Formula, Result);
  return Result;
}

const std::vector<uint32_t> &Solver::formulaAtomVars(Term Formula) {
  auto It = FormulaAtomVars.find(Formula);
  if (It != FormulaAtomVars.end())
    return It->second;
  std::vector<uint32_t> Vars;
  std::vector<Term> Stack{Formula};
  std::unordered_set<Term, TermIdHash> Seen;
  while (!Stack.empty()) {
    Term F = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(F).second)
      continue;
    switch (F->kind()) {
    case TermKind::BoolVar:
    case TermKind::AtomLe:
    case TermKind::AtomEq:
      Vars.push_back(atomVar(F));
      break;
    case TermKind::Not:
      Stack.push_back(F->child(0));
      break;
    case TermKind::And:
    case TermKind::Or:
    case TermKind::Iff:
      for (Term Child : F->children())
        Stack.push_back(Child);
      break;
    default:
      break;
    }
  }
  std::sort(Vars.begin(), Vars.end());
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  return FormulaAtomVars.emplace(Formula, std::move(Vars)).first->second;
}

void Solver::assertFormula(Term Formula) {
  if (Formula == TM.mkTrue())
    return;
  if (Formula == TM.mkFalse()) {
    TriviallyUnsat = true;
    return;
  }
  Assertions.push_back(Formula);
  if (!Sat.addClause({encode(Formula)}))
    TriviallyUnsat = true;
}

Lit Solver::activationFor(Term Formula) {
  auto It = SelectorOf.find(Formula);
  if (It != SelectorOf.end())
    return It->second;
  uint32_t Var = Sat.newVar();
  VarToAtom.resize(Var + 1, nullptr);
  Lit Sel = mkLit(Var, false);
  if (Formula == TM.mkFalse()) {
    // sel -> false: assuming the selector fails immediately, which is
    // exactly "this premise is unsatisfiable" without poisoning the solver.
    Sat.addClause({negate(Sel)});
  } else if (Formula != TM.mkTrue()) {
    Lit Enc = encode(Formula);
    if (!Sat.addClause({negate(Sel), Enc}))
      TriviallyUnsat = true;
  }
  SelectorOf.emplace(Formula, Sel);
  SelectorTerm.emplace(Sel, Formula);
  return Sel;
}

void Solver::pushContext(Term Formula) {
  ContextStack.push_back(activationFor(Formula));
}

void Solver::pop() {
  assert(!ContextStack.empty() && "pop without matching pushContext");
  ContextStack.pop_back();
}

SolverResult Solver::checkUnder(const std::vector<Lit> &ExtraAssumptions) {
  if (TriviallyUnsat)
    return SolverResult::Unsat;
  TheoryRounds = 0;

  std::vector<Lit> Assumptions = ContextStack;
  Assumptions.insert(Assumptions.end(), ExtraAssumptions.begin(),
                     ExtraAssumptions.end());

  // Active-set restriction: the theory only needs the atoms of premises
  // active in THIS check (asserted, assumed, or introduced by lemmas).
  // Everything else the SAT model assigns is residue of premises a
  // long-lived solver once saw; handing it to the theory would make every
  // round cost proportional to the session's lifetime instead of the
  // query. Sound and complete: active formulas mention only active atoms,
  // so a boolean model that is theory-consistent on the active set yields
  // a T-model of the active formulas regardless of stale-atom values.
  bool RestrictActive = true;
  ++ActiveGen;
  ActiveMark.resize(Sat.numVars(), 0);
  ActiveMarkLimit = Sat.numVars();
  ActiveList.clear();
  auto MarkVar = [this](uint32_t V) {
    if (V < ActiveMarkLimit && ActiveMark[V] != ActiveGen) {
      ActiveMark[V] = ActiveGen;
      ActiveList.push_back(V);
    }
  };
  auto MarkFormula = [this, &MarkVar](Term F) {
    for (uint32_t V : formulaAtomVars(F))
      MarkVar(V);
  };
  for (Term F : Assertions)
    MarkFormula(F);
  for (uint32_t V : LemmaAtomVars)
    MarkVar(V);
  for (Lit A : Assumptions) {
    auto SelIt = SelectorTerm.find(A);
    if (SelIt == SelectorTerm.end()) {
      // A raw (non-selector) assumption: no formula to attribute it to, so
      // fall back to the unrestricted theory view.
      RestrictActive = false;
      break;
    }
    MarkFormula(SelIt->second);
  }

  for (;;) {
    SatResult SatAnswer = Sat.solveUnderAssumptions(Assumptions);
    if (SatAnswer == SatResult::Unsat)
      return SolverResult::Unsat;
    if (SatAnswer == SatResult::Cancelled)
      return SolverResult::Unknown;
    ++TheoryRounds;
    ++TheoryRoundsTotal;
    if (stopRequested())
      return SolverResult::Unknown;

    // Collect the theory constraints implied by the boolean model. The model
    // assigns *every* atom the solver has ever seen — including atoms of
    // currently inactive premises — which keeps the loop sound: lemmas
    // derived from them are theory-valid regardless of what is assumed.
    std::vector<LiaAtom> Atoms;
    std::vector<Lit> AtomBlockingLits; // parallel to Atoms
    std::vector<LinSum> Diseqs;
    std::vector<Lit> DiseqBlockingLits; // parallel to Diseqs
    std::vector<Term> DiseqEqAtoms;     // parallel to Diseqs
    Assignment BoolModel;

    auto CollectVar = [&](uint32_t Var) {
      Term Atom = Var < VarToAtom.size() ? VarToAtom[Var] : nullptr;
      if (!Atom)
        return;
      bool Value = Sat.modelValue(Var);
      if (Atom->kind() == TermKind::BoolVar) {
        BoolModel.BoolValues[Atom] = Value;
        return;
      }
      if (Atom->kind() == TermKind::AtomLe) {
        LiaAtom A;
        if (Value) {
          A.Sum = Atom->sum();
        } else {
          // not (t <= 0) over integers: -t + 1 <= 0.
          A.Sum = TermManager::sumScale(Atom->sum(), -1);
          A.Sum.Constant += 1;
        }
        Atoms.push_back(std::move(A));
        AtomBlockingLits.push_back(mkLit(Var, !Value));
        return;
      }
      assert(Atom->kind() == TermKind::AtomEq && "unexpected atom kind");
      if (Value) {
        LiaAtom A;
        A.Sum = Atom->sum();
        A.IsEq = true;
        Atoms.push_back(std::move(A));
        AtomBlockingLits.push_back(mkLit(Var, false));
      } else {
        Diseqs.push_back(Atom->sum());
        DiseqBlockingLits.push_back(mkLit(Var, true));
        DiseqEqAtoms.push_back(Atom);
      }
    };
    if (RestrictActive) {
      for (uint32_t Var : ActiveList)
        CollectVar(Var);
      // Vars born after the marking (this check's split-lemma atoms) count
      // as active.
      for (uint32_t Var = ActiveMarkLimit; Var < Sat.numVars(); ++Var)
        CollectVar(Var);
    } else {
      for (uint32_t Var = 0; Var < Sat.numVars(); ++Var)
        CollectVar(Var);
    }

    Assignment IntModel;
    size_t ViolatedDiseq = 0;
    LiaResult Result = Lia.check(Atoms, Diseqs, &IntModel, &ViolatedDiseq);

    switch (Result) {
    case LiaResult::Sat:
      Model = std::move(IntModel);
      Model.BoolValues = std::move(BoolModel.BoolValues);
      return SolverResult::Sat;
    case LiaResult::Unknown:
      return SolverResult::Unknown;
    case LiaResult::Unsat: {
      // The blocking clause is a theory tautology, so adding it permanently
      // is sound for every future context and assumption set.
      std::vector<size_t> Core = Lia.unsatCore(Atoms);
      std::vector<Lit> Blocking;
      Blocking.reserve(Core.size());
      for (size_t Index : Core)
        Blocking.push_back(negate(AtomBlockingLits[Index]));
      if (!Sat.addClause(std::move(Blocking))) {
        TriviallyUnsat = true;
        return SolverResult::Unsat;
      }
      break;
    }
    case LiaResult::Diseq: {
      Term EqAtom = DiseqEqAtoms[ViolatedDiseq];
      if (SplitDone.insert(EqAtom).second) {
        // Lemma: (s == 0) \/ (s + 1 <= 0) \/ (-s + 1 <= 0).
        const LinSum &Sum = EqAtom->sum();
        LinSum LeSum = Sum;
        LeSum.Constant += 1;
        LinSum GeSum = TermManager::sumScale(Sum, -1);
        GeSum.Constant += 1;
        Term LeAtom = TM.mkLeZero(LeSum);
        Term GeAtom = TM.mkLeZero(GeSum);
        std::vector<Lit> Lemma;
        Lemma.push_back(mkLit(atomVar(EqAtom), false));
        // The tightened atoms may fold to constants for singleton sums.
        if (LeAtom == TM.mkTrue() || GeAtom == TM.mkTrue())
          break; // lemma trivially true: should not happen with a diseq
        // The strict atoms join the active set immediately: one may reuse a
        // var encoded for a currently-inactive premise, and the theory must
        // see it in this check's remaining rounds or the violation repeats.
        if (LeAtom != TM.mkFalse()) {
          uint32_t V = atomVar(LeAtom);
          LemmaAtomVars.push_back(V);
          MarkVar(V);
          Lemma.push_back(mkLit(V, false));
        }
        if (GeAtom != TM.mkFalse()) {
          uint32_t V = atomVar(GeAtom);
          LemmaAtomVars.push_back(V);
          MarkVar(V);
          Lemma.push_back(mkLit(V, false));
        }
        if (!Sat.addClause(std::move(Lemma))) {
          TriviallyUnsat = true;
          return SolverResult::Unsat;
        }
      } else {
        // Once the split lemma for this equality is in the clause set, every
        // boolean model either asserts the equality (no disequality) or
        // asserts one strict side, which the theory then enforces; a repeat
        // violation is impossible. Fail safe rather than loop.
        assert(false && "disequality violated after split lemma");
        return SolverResult::Unknown;
      }
      break;
    }
    }
  }
}

SolverResult QueryEngine::checkSat(Term Formula) {
  auto It = SatCache.find(Formula);
  if (It != SatCache.end()) {
    ++CacheHits;
    return It->second;
  }
  ++Queries;
  // The clock covers construction and encoding, not just the search: a
  // fresh instance pays both per query, and the incremental comparison is
  // only honest if that cost is on the meter.
  Timer Clock;
  Solver S(TM);
  for (const runtime::CancellationToken *Token : Watched)
    S.watchCancellation(Token);
  S.assertFormula(Formula);
  SolverResult Result = S.check();
  chargeSolver(Clock);
  SatSolves += Result == SolverResult::Sat;
  TheoryRoundsTotal += S.numTheoryRoundsTotal();
  ClausesRetained += S.numClausesRetained();
  WarmPivots += S.numWarmPivots();
  WarmStarts += S.numWarmStarts();
  // Unknowns from budget exhaustion are deterministic and cacheable; an
  // Unknown (or anything else) produced while cancellation fired is not.
  if (!stopRequested())
    SatCache.emplace(Formula, Result);
  return Result;
}

SolverResult QueryEngine::checkSatModel(Term Formula, Assignment &ModelOut) {
  ++Queries;
  Timer Clock;
  Solver S(TM);
  for (const runtime::CancellationToken *Token : Watched)
    S.watchCancellation(Token);
  S.assertFormula(Formula);
  SolverResult Result = S.check();
  chargeSolver(Clock);
  SatSolves += Result == SolverResult::Sat;
  TheoryRoundsTotal += S.numTheoryRoundsTotal();
  ClausesRetained += S.numClausesRetained();
  WarmPivots += S.numWarmPivots();
  WarmStarts += S.numWarmStarts();
  if (Result == SolverResult::Sat)
    ModelOut = S.model();
  return Result;
}

bool QueryEngine::implies(Term Left, Term Right) {
  if (Left == TM.mkFalse() || Right == TM.mkTrue() || Left == Right)
    return true;
  auto Key = std::make_pair(Left, Right);
  auto It = ImplCache.find(Key);
  if (It != ImplCache.end()) {
    ++CacheHits;
    return It->second;
  }
  bool Result = isUnsat(TM.mkAnd(Left, TM.mkNot(Right)));
  if (!stopRequested())
    ImplCache.emplace(Key, Result);
  return Result;
}

std::unique_ptr<Session> QueryEngine::openSession() {
  ++Sessions;
  return std::make_unique<Session>(*this);
}

Solver &Session::solver() {
  if (S && S->numVars() > kEpochVarLimit) {
    // Epoch reset: the accumulated encoding (stale atoms slow every theory
    // round) outweighs what incrementality saves. Verdict memoization
    // survives; encodings are rebuilt lazily from the stored terms.
    flushCounters();
    S.reset();
  }
  if (!S) {
    S = std::make_unique<Solver>(QE.TM);
    S->enableTheoryRootCache();
    for (const runtime::CancellationToken *Token : QE.Watched)
      S->watchCancellation(Token);
    SeenRounds = SeenRetained = SeenWarm = SeenWarmStarts = 0;
  }
  return *S;
}

void Session::flushCounters() {
  if (!S)
    return;
  QE.TheoryRoundsTotal += S->numTheoryRoundsTotal() - SeenRounds;
  QE.ClausesRetained += S->numClausesRetained() - SeenRetained;
  QE.WarmPivots += S->numWarmPivots() - SeenWarm;
  QE.WarmStarts += S->numWarmStarts() - SeenWarmStarts;
  SeenRounds = S->numTheoryRoundsTotal();
  SeenRetained = S->numClausesRetained();
  SeenWarm = S->numWarmPivots();
  SeenWarmStarts = S->numWarmStarts();
}

Session::Handle Session::prepare(Term Formula) {
  auto It = HandleOf.find(Formula);
  if (It != HandleOf.end())
    return It->second;
  Handle H = static_cast<Handle>(HandleTerms.size());
  HandleTerms.push_back(Formula);
  HandleOf.emplace(Formula, H);
  return H;
}

void Session::pushContext(Term Formula) { ContextTerms.push_back(Formula); }

void Session::pop() {
  assert(!ContextTerms.empty() && "pop without matching pushContext");
  ContextTerms.pop_back();
}

bool Session::modelAnswers(Term Conj) {
  ++QE.ModelTries;
  Timer Clock;
  // Newest first, as consecutive queries of a session share most premises.
  bool Hit = false;
  for (size_t I = 0; I < Models.size() && !Hit; ++I) {
    size_t Slot = (NextModel + Models.size() - 1 - I) % Models.size();
    Hit = satisfies(Models[Slot], Conj);
  }
  QE.chargeSolver(Clock);
  QE.ModelHits += Hit;
  return Hit;
}

void Session::remember(std::vector<uint32_t> Key, Term Conj,
                       SolverResult Result) {
  if (QE.stopRequested())
    return;
  QE.SatCache.emplace(Conj, Result);
  Memo.emplace(std::move(Key), Result);
}

SolverResult Session::checkUnder(const std::vector<Handle> &Assumed,
                                 Assignment *ModelOut) {
  // The memo key is the exact active premise set: context handles plus the
  // explicit ones, deduplicated (activation is idempotent).
  std::vector<uint32_t> Key;
  Key.reserve(ContextTerms.size() + Assumed.size());
  for (Term F : ContextTerms)
    Key.push_back(prepare(F));
  Key.insert(Key.end(), Assumed.begin(), Assumed.end());
  std::sort(Key.begin(), Key.end());
  Key.erase(std::unique(Key.begin(), Key.end()), Key.end());

  if (!ModelOut) {
    auto It = Memo.find(Key);
    if (It != Memo.end()) {
      ++QE.CacheHits;
      return It->second;
    }
  }

  // The premise set IS the query, so the engine-wide SatCache applies under
  // the canonical conjunction key: another session — or the fresh path —
  // may have answered it already, and mkAnd's folding settles trivial
  // queries without a solve.
  std::vector<Term> Premises;
  Premises.reserve(Key.size());
  for (uint32_t H : Key)
    Premises.push_back(HandleTerms[H]);
  Term Conj = QE.TM.mkAnd(std::move(Premises));
  if (Conj == QE.TM.mkFalse()) {
    ++QE.CacheHits;
    Memo.emplace(std::move(Key), SolverResult::Unsat);
    return SolverResult::Unsat;
  }
  if (!ModelOut) {
    if (Conj == QE.TM.mkTrue()) {
      ++QE.CacheHits;
      Memo.emplace(std::move(Key), SolverResult::Sat);
      return SolverResult::Sat;
    }
    auto It = QE.SatCache.find(Conj);
    if (It != QE.SatCache.end()) {
      ++QE.CacheHits;
      Memo.emplace(std::move(Key), It->second);
      return It->second;
    }
    if (modelAnswers(Conj)) {
      remember(std::move(Key), Conj, SolverResult::Sat);
      return SolverResult::Sat;
    }
  }

  // Clock the whole query — activation encoding included — to mirror what
  // the fresh path charges per checkSat.
  Timer Clock;
  Solver &Sv = solver();
  std::vector<Lit> Lits;
  Lits.reserve(Key.size());
  for (uint32_t H : Key)
    Lits.push_back(Sv.activationFor(HandleTerms[H]));

  uint64_t R0 = Sv.numTheoryRoundsTotal();
  uint64_t C0 = Sv.numClausesRetained();
  uint64_t W0 = Sv.numWarmPivots();
  uint64_t WS0 = Sv.numWarmStarts();
  SolverResult Result = Sv.checkUnder(Lits);
  QE.noteSessionSolve(Clock, Sv.numTheoryRoundsTotal() - R0,
                      Sv.numClausesRetained() - C0, Sv.numWarmPivots() - W0,
                      Sv.numWarmStarts() - WS0);
  SeenRounds = Sv.numTheoryRoundsTotal();
  SeenRetained = Sv.numClausesRetained();
  SeenWarm = Sv.numWarmPivots();
  SeenWarmStarts = Sv.numWarmStarts();

  if (Result == SolverResult::Sat) {
    ++QE.SatSolves;
    if (ModelOut)
      *ModelOut = Sv.model();
    if (Models.size() < kModelRing) {
      Models.push_back(Sv.model());
    } else {
      Models[NextModel] = Sv.model();
      NextModel = (NextModel + 1) % kModelRing;
    }
  }
  // Non-cancelled verdicts are worth remembering — including Unknown, which
  // is deterministic budget exhaustion here (the Hoare gate re-poses every
  // unproven triple each refinement round, and re-exhausting the budget each
  // time is pure waste). A cancelled Unknown is nondeterministic and must
  // not be cached.
  remember(std::move(Key), Conj, Result);
  return Result;
}
