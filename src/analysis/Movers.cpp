//===- analysis/Movers.cpp - Lipton mover classification ------------------===//

#include "analysis/Movers.h"

#include "analysis/InvariantSource.h"
#include "analysis/StaticCommutativity.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

using namespace seqver;
using namespace seqver::analysis;
using seqver::automata::Letter;
using seqver::prog::Location;
using seqver::smt::Term;

const char *seqver::analysis::moverClassName(MoverClass C) {
  switch (C) {
  case MoverClass::None:
    return "non-mover";
  case MoverClass::Right:
    return "right-mover";
  case MoverClass::Left:
    return "left-mover";
  case MoverClass::Both:
    return "both-mover";
  }
  return "?";
}

MoverClass seqver::analysis::moverMeet(MoverClass A, MoverClass B) {
  if (A == B)
    return A;
  if (A == MoverClass::Both)
    return B;
  if (B == MoverClass::Both)
    return A;
  return MoverClass::None; // Right ∧ Left, or anything with None
}

namespace {

bool containsTerm(const std::vector<Term> &Sorted, Term V) {
  return std::binary_search(
      Sorted.begin(), Sorted.end(), V,
      [](Term A, Term B) { return A->id() < B->id(); });
}

/// Sorted intersection (both inputs id-sorted).
std::vector<Term> intersectTerms(const std::vector<Term> &A,
                                 const std::vector<Term> &B) {
  std::vector<Term> Out;
  std::set_intersection(A.begin(), A.end(), B.begin(), B.end(),
                        std::back_inserter(Out),
                        [](Term X, Term Y) { return X->id() < Y->id(); });
  return Out;
}

} // namespace

MoverAnalysis::~MoverAnalysis() = default;

MoverAnalysis::MoverAnalysis(
    const prog::ConcurrentProgram &P, const LockSetAnalysis &Locks,
    const MayAccessAnalysis &Accesses,
    const std::vector<const InvariantSource *> &Sources)
    : P(P) {
  (void)Accesses; // footprints are the precise per-action projection of the
                  // may-access sets; the sets themselves drive the report
  const uint32_t NumLetters = P.numLetters();
  Infos.assign(NumLetters, MoverInfo{});

  // Per-letter CFG edges (a pruned letter may label none) and the must-held
  // lockset on entry: the intersection of heldAt over every source edge.
  std::vector<std::vector<std::pair<int, Location>>> EdgesOf(NumLetters);
  for (int T = 0; T < P.numThreads(); ++T) {
    const prog::ThreadCfg &Cfg = P.thread(T);
    for (Location L = 0; L < Cfg.numLocations(); ++L)
      for (const auto &[EdgeLetter, To] : Cfg.Edges[L]) {
        (void)To;
        EdgesOf[EdgeLetter].push_back({T, L});
      }
  }
  std::vector<std::vector<Term>> Must(NumLetters);
  for (Letter L = 0; L < NumLetters; ++L) {
    bool First = true;
    for (const auto &[T, From] : EdgesOf[L]) {
      const std::vector<Term> &Held = Locks.heldAt(T, From);
      Must[L] = First ? Held : intersectTerms(Must[L], Held);
      First = false;
    }
  }

  // Dead-edge vacuity: per letter, whether every remaining CFG edge is
  // proven dead (or its source unreachable) by some registered source;
  // DeadTier[L] is the most expensive source index needed, -1 when the
  // letter is live. A letter with no edges left is trivially discharged.
  std::vector<int> DeadTier(NumLetters, -1);
  {
    // (thread, from, letter) -> first source index proving the edge dead.
    std::map<std::tuple<int, Location, Letter>, int> EdgeKiller;
    for (size_t I = 0; I < Sources.size(); ++I)
      for (const DeadEdge &E : Sources[I]->deadEdges())
        EdgeKiller.emplace(std::make_tuple(E.ThreadId, E.From, E.EdgeLetter),
                           static_cast<int>(I));
    for (Letter L = 0; L < NumLetters; ++L) {
      int Tier = -1;
      bool AllDead = true;
      for (const auto &[T, From] : EdgesOf[L]) {
        auto It = EdgeKiller.find({T, From, L});
        bool Unreachable =
            std::any_of(Sources.begin(), Sources.end(),
                        [&, TT = T, FF = From](const InvariantSource *S) {
                          return !S->reachable(TT, FF);
                        });
        if (It != EdgeKiller.end())
          Tier = std::max(Tier, It->second);
        else if (Unreachable)
          Tier = std::max(Tier, 0);
        else {
          AllDead = false;
          break;
        }
      }
      if (AllDead)
        DeadTier[L] = std::max(Tier, 0);
    }
  }

  StaticCommutativity Static(P);
  Static.setInvariantContext(Sources);
  const LockInfo &Info = Locks.locks();

  auto SourceName = [&](int Tier) -> std::string {
    return Tier >= 0 && static_cast<size_t>(Tier) < Sources.size()
               ? Sources[static_cast<size_t>(Tier)]->name()
               : "";
  };
  auto MarkConditional = [&](Letter L, const std::string &Src) {
    Infos[L].Conditional = true;
    // Keep the most expensive source: later registry entries supersede.
    auto Rank = [&](const std::string &Name) {
      for (size_t I = 0; I < Sources.size(); ++I)
        if (Name == Sources[I]->name())
          return static_cast<int>(I);
      return -1;
    };
    if (Rank(Src) > Rank(Infos[L].Source))
      Infos[L].Source = Src;
  };
  auto Demote = [&](Letter L, MoverClass To, const std::string &Why) {
    MoverClass Met = moverMeet(Infos[L].Class, To);
    if (Met != Infos[L].Class) {
      Infos[L].Class = Met;
      Infos[L].Reason = Why;
    }
  };

  for (Letter A = 0; A < NumLetters; ++A) {
    const prog::Action &ActA = P.action(A);
    for (Letter B = A + 1; B < NumLetters; ++B) {
      const prog::Action &ActB = P.action(B);
      if (ActA.ThreadId == ActB.ThreadId)
        continue; // movers constrain commutation with *foreign* actions only
      if (!ActA.footprintConflictsWith(ActB)) {
        ++Pairs.PairsDisjoint;
        continue;
      }
      ++Pairs.PairsChecked;

      // Rule V0 — invariant vacuity: one side's every CFG edge is dead, so
      // the two actions are never adjacent in any execution. This is the
      // ISSUE's "conflicts only on edges the invariants prove dead".
      int VacuousTier = std::max(DeadTier[A], DeadTier[B]);
      if (DeadTier[A] >= 0 || DeadTier[B] >= 0) {
        ++Pairs.PairsDeadEdge;
        std::string Src = SourceName(VacuousTier);
        if (!Src.empty()) {
          MarkConditional(A, Src);
          MarkConditional(B, Src);
        }
        continue;
      }

      // Lock rules. For each discovered lock M, the mutual-exclusion
      // invariant (guaranteed by the discipline's ownership validation)
      // decides the feasibility of the two adjacent orders A·B and B·A:
      //   L1  both must-hold M        -> co-location unreachable: vacuous
      //   L4  both acquire M          -> each order blocks the second
      //                                  acquire: vacuous
      //   L2  X acquires M, Y must-holds M and never releases it in this
      //       action                  -> both orders leave M held when X's
      //                                  acquire runs: vacuous
      //   L3  X acquires M, Y must-holds and releases M -> Y·X is the only
      //       feasible order and may not be swapped: X stays a right-mover
      //       at best, Y a left-mover at best (the classic Lipton
      //       acquire-right / release-left asymmetry).
      bool Vacuous = false;
      bool AcqRelAB = false; // A acquires, B releases
      bool AcqRelBA = false; // B acquires, A releases
      for (Term M : Info.Locks) {
        bool MustA = containsTerm(Must[A], M);
        bool MustB = containsTerm(Must[B], M);
        bool AcqA = containsTerm(Info.Acquires[A], M);
        bool AcqB = containsTerm(Info.Acquires[B], M);
        bool RelA = containsTerm(Info.Releases[A], M);
        bool RelB = containsTerm(Info.Releases[B], M);
        if ((MustA && MustB) || (AcqA && AcqB)) {
          Vacuous = true;
          break;
        }
        if (AcqA && MustB) {
          if (!RelB) {
            Vacuous = true;
            break;
          }
          AcqRelAB = true;
        } else if (AcqB && MustA) {
          if (!RelA) {
            Vacuous = true;
            break;
          }
          AcqRelBA = true;
        }
      }
      if (Vacuous) {
        ++Pairs.PairsLockVacuous;
        continue;
      }

      // Conditional both-movers: the pair's commutativity obligations close
      // statically, possibly only under the per-location invariants of a
      // registered source (which then names the justification).
      StaticTierVerdict V = Static.decide(
          nullptr, A, B,
          prog::commutationObligations(P.termManager(), ActA, ActB));
      if (V != StaticTierVerdict::Unknown) {
        ++Pairs.PairsStatic;
        if (V == StaticTierVerdict::Octagon) {
          MarkConditional(A, "octagon");
          MarkConditional(B, "octagon");
        } else if (V == StaticTierVerdict::Karr) {
          MarkConditional(A, "karr");
          MarkConditional(B, "karr");
        }
        continue;
      }

      if (AcqRelAB || AcqRelBA) {
        // If both orientations hold (A acquires one lock B releases and
        // vice versa), both constraints apply and the meets pin both
        // letters to None — Right ∧ Left.
        ++Pairs.PairsAcqRel;
        if (AcqRelAB) {
          Demote(A, MoverClass::Right, "acquire vs `" + ActB.Name + "`");
          Demote(B, MoverClass::Left, "release vs `" + ActA.Name + "`");
        }
        if (AcqRelBA) {
          Demote(B, MoverClass::Right, "acquire vs `" + ActA.Name + "`");
          Demote(A, MoverClass::Left, "release vs `" + ActB.Name + "`");
        }
        continue;
      }

      // No rule applies: an unprotected conflicting pair pins both sides.
      ++Pairs.PairsDemoted;
      Demote(A, MoverClass::None, "conflicts with `" + ActB.Name + "`");
      Demote(B, MoverClass::None, "conflicts with `" + ActA.Name + "`");
    }
  }

  // Letters with no remaining CFG edge: classification is moot; present
  // them as both-movers with an explicit note so the report is honest.
  for (Letter L = 0; L < NumLetters; ++L)
    if (EdgesOf[L].empty()) {
      Infos[L].Class = MoverClass::Both;
      Infos[L].Reason = "no CFG edge (pruned)";
    }
}

size_t MoverAnalysis::count(MoverClass C) const {
  size_t N = 0;
  for (const MoverInfo &I : Infos)
    if (I.Class == C)
      ++N;
  return N;
}

size_t MoverAnalysis::numConditional() const {
  size_t N = 0;
  for (const MoverInfo &I : Infos)
    if (I.Conditional)
      ++N;
  return N;
}

std::string MoverAnalysis::report() const {
  std::ostringstream Out;
  Out << "== mover classification ==\n";
  for (Letter L = 0; L < P.numLetters(); ++L) {
    const MoverInfo &I = Infos[L];
    const prog::Action &Act = P.action(L);
    Out << "  t" << Act.ThreadId << " `" << Act.Name
        << "`: " << moverClassName(I.Class);
    if (I.Conditional)
      Out << " [conditional: " << I.Source << "]";
    if (!I.Reason.empty())
      Out << " (" << I.Reason << ")";
    Out << "\n";
  }
  Out << "movers: " << numBoth() << " both, " << numRight() << " right, "
      << numLeft() << " left, " << numNone() << " non ("
      << numConditional() << " conditional)\n";
  Out << "pairs: " << Pairs.PairsChecked << " conflicting ("
      << Pairs.PairsDisjoint << " disjoint), " << Pairs.PairsDeadEdge
      << " dead-edge vacuous, " << Pairs.PairsLockVacuous
      << " lock-vacuous, " << Pairs.PairsStatic << " static-commute, "
      << Pairs.PairsAcqRel << " acquire/release, " << Pairs.PairsDemoted
      << " demoting\n";
  return Out.str();
}
