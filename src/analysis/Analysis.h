//===- analysis/Analysis.h - Whole-program static analysis driver ---------===//
///
/// \file
/// Runs every analysis pass over a concurrent program and bundles the
/// results: lock discipline + must-locksets, may-access sets, the
/// registered invariant sources (intervals, octagons, Karr affine
/// equalities) with their dead edges, and the lockset race report. Also
/// hosts the dead-edge pruning transformation and the human-readable
/// report behind `seqver_cli --analyze`.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_ANALYSIS_ANALYSIS_H
#define SEQVER_ANALYSIS_ANALYSIS_H

#include "analysis/IntervalProp.h"
#include "analysis/KarrProp.h"
#include "analysis/LockSet.h"
#include "analysis/MayAccess.h"
#include "analysis/OctagonProp.h"
#include "analysis/RaceDetector.h"

#include <map>
#include <memory>
#include <string>

namespace seqver {
namespace analysis {

/// All pass results for one program. Owns the analyses; references the
/// program, which must outlive it.
class ProgramAnalysis {
public:
  explicit ProgramAnalysis(const prog::ConcurrentProgram &P);

  const prog::ConcurrentProgram &program() const { return P; }
  const LockSetAnalysis &locks() const { return *Locks; }
  const MayAccessAnalysis &accesses() const { return *Accesses; }
  const IntervalAnalysis &intervals() const { return *Intervals; }
  const OctagonAnalysis &octagons() const { return *Octagons; }
  const KarrAnalysis &karr() const { return *Karr; }
  const RaceDetector &races() const { return *Racy; }

  /// The registered invariant sources in tier order — interval, octagon,
  /// karr — the order consumers try them in (cheapest first)
  /// and the order pruning attributes removed edges in.
  std::vector<const InvariantSource *> invariantSources() const;

  /// Human-readable race/independence/pruning report (--analyze output).
  std::string report() const;

private:
  const prog::ConcurrentProgram &P;
  std::unique_ptr<LockSetAnalysis> Locks;
  std::unique_ptr<MayAccessAnalysis> Accesses;
  std::unique_ptr<IntervalAnalysis> Intervals;
  std::unique_ptr<OctagonAnalysis> Octagons;
  std::unique_ptr<KarrAnalysis> Karr;
  std::unique_ptr<RaceDetector> Racy;
};

/// Per-run pruning statistics: edges removed, attributed to the *first*
/// source in registry order that found them. With the canonical order
/// (interval, octagon, karr) a source's count is exactly the edges the
/// cheaper tiers missed.
struct PruneStats {
  uint32_t Removed = 0;
  std::map<std::string, uint32_t> BySource;
};

/// Removes statically dead edges from P, in place, merging the dead-edge
/// lists of every given invariant source (deduplicated; a location is
/// unreachable if *any* source proves it so). A reachable location keeps
/// at least one outgoing edge even if all of them are dead: dropping every
/// edge would turn a (deadlocked) location into a terminal one and change
/// L(P)'s all-exit states. Returns the number of edges removed.
uint32_t pruneDeadEdges(prog::ConcurrentProgram &P,
                        const std::vector<const InvariantSource *> &Sources,
                        PruneStats *Stats = nullptr);

/// Which analyses a preset-based prune runs fresh over P.
enum class PrunePreset {
  IntervalOnly,  ///< historical interval-only entailment
  WithOctagons,  ///< intervals + octagons
  Full,          ///< intervals + octagons + Karr affine equalities
};

/// Convenience entry point: runs the preset's analyses, then prunes.
uint32_t pruneDeadEdges(prog::ConcurrentProgram &P,
                        PrunePreset Preset = PrunePreset::Full,
                        PruneStats *Stats = nullptr);

} // namespace analysis
} // namespace seqver

#endif // SEQVER_ANALYSIS_ANALYSIS_H
