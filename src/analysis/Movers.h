//===- analysis/Movers.h - Lipton mover classification --------------------===//
///
/// \file
/// Classifies every program action as a left-, right-, both-, or non-mover
/// in Lipton's sense, from purely static evidence:
///
///  - **Footprint disjointness** (the MayAccess/footprint level): an action
///    whose reads and writes never conflict with any foreign action is a
///    both-mover outright.
///  - **MustLock vacuity**: two conflicting actions that must hold a common
///    lock are never co-located, so both swap orders are vacuous; an
///    acquire against a foreign action that must-holds the same lock is
///    blocked in every adjacency that would need a swap. The lock
///    discipline's ownership validation (LockSet.cpp) is what makes these
///    mutual-exclusion arguments sound.
///  - **Acquire/release asymmetry**: against a foreign release of the same
///    lock, an acquire stays a right-mover and the release a left-mover —
///    the classic Lipton classification.
///  - **Conditional movers** through the cumulative InvariantSource
///    registry: a conflict on edges every registered domain proves dead is
///    no conflict (the pair is vacuously independent), and a pair whose
///    commutativity obligations close under the per-location invariants
///    (StaticCommutativity::decide) is a both-mover pair, attributed to
///    the source that discharged it.
///
/// The per-letter class is the meet over all foreign conflicting pairs:
/// Both > {Right, Left} > None, with Right ∧ Left = None. Classes feed
/// transaction fusion (analysis/Fusion.h) and the `--analyze=movers`
/// report, which names the justifying source for each conditional mover.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_ANALYSIS_MOVERS_H
#define SEQVER_ANALYSIS_MOVERS_H

#include "analysis/LockSet.h"
#include "analysis/MayAccess.h"
#include "program/Program.h"

#include <memory>
#include <string>
#include <vector>

namespace seqver {
namespace analysis {

class InvariantSource;

/// Lipton mover class of one action. Lattice (for the per-letter meet):
/// Both above Right and Left, which are incomparable, above None.
enum class MoverClass : uint8_t { None, Right, Left, Both };

const char *moverClassName(MoverClass C);

/// Meet in the mover lattice (Right ∧ Left = None).
MoverClass moverMeet(MoverClass A, MoverClass B);

/// Classification of one letter plus its justification trail.
struct MoverInfo {
  MoverClass Class = MoverClass::Both;
  /// Name of the invariant source a conditional justification relied on
  /// ("interval", "octagon", "karr"); empty when the class
  /// needed no invariant reasoning. When several pairs needed different
  /// sources, the most expensive one is kept.
  std::string Source;
  /// Human-readable note on the binding constraint: which foreign action
  /// demoted the class, or which rule kept it a both-mover.
  std::string Reason;
  /// True when at least one conflicting pair was discharged through an
  /// invariant source (the ISSUE's "conditional mover").
  bool Conditional = false;
};

/// How one conflicting pair was settled (for counters and the report).
struct MoverPairStats {
  uint64_t PairsChecked = 0;    ///< foreign pairs with a footprint conflict
  uint64_t PairsDisjoint = 0;   ///< foreign pairs with no conflict at all
  uint64_t PairsDeadEdge = 0;   ///< discharged: all edges of one side dead
  uint64_t PairsStatic = 0;     ///< discharged by static commutativity
  uint64_t PairsLockVacuous = 0; ///< discharged by MustLock vacuity
  uint64_t PairsAcqRel = 0;     ///< acquire/release asymmetry applied
  uint64_t PairsDemoted = 0;    ///< no rule: both sides met with None
};

/// Whole-program mover classification. References the program and the
/// analyses, which must outlive it.
class MoverAnalysis {
public:
  /// Sources are consulted in the given order (cheapest first) for
  /// dead-edge vacuity and conditional commutativity; empty disables the
  /// conditional tier (lock and footprint rules still apply).
  MoverAnalysis(const prog::ConcurrentProgram &P,
                const LockSetAnalysis &Locks,
                const MayAccessAnalysis &Accesses,
                const std::vector<const InvariantSource *> &Sources);
  ~MoverAnalysis();

  MoverClass classOf(automata::Letter L) const {
    return Infos[L].Class;
  }
  const MoverInfo &info(automata::Letter L) const { return Infos[L]; }

  const MoverPairStats &pairStats() const { return Pairs; }

  size_t numBoth() const { return count(MoverClass::Both); }
  size_t numRight() const { return count(MoverClass::Right); }
  size_t numLeft() const { return count(MoverClass::Left); }
  size_t numNone() const { return count(MoverClass::None); }
  /// Letters whose class relied on an invariant source.
  size_t numConditional() const;

  /// Per-statement classification table (--analyze=movers output): one
  /// line per action with its class, the justifying source for
  /// conditional movers, and the binding reason.
  std::string report() const;

private:
  size_t count(MoverClass C) const;

  const prog::ConcurrentProgram &P;
  std::vector<MoverInfo> Infos;
  MoverPairStats Pairs;
};

} // namespace analysis
} // namespace seqver

#endif // SEQVER_ANALYSIS_MOVERS_H
