//===- analysis/Analysis.cpp - Whole-program static analysis driver -------===//

#include "analysis/Analysis.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

using namespace seqver;
using namespace seqver::analysis;
using seqver::automata::Letter;
using seqver::prog::Location;
using seqver::smt::Term;

ProgramAnalysis::ProgramAnalysis(const prog::ConcurrentProgram &P) : P(P) {
  Locks = std::make_unique<LockSetAnalysis>(P);
  Accesses = std::make_unique<MayAccessAnalysis>(P);
  Intervals = std::make_unique<IntervalAnalysis>(P);
  Octagons = std::make_unique<OctagonAnalysis>(P);
  Karr = std::make_unique<KarrAnalysis>(P);
  Racy = std::make_unique<RaceDetector>(P, *Locks, Intervals.get());
}

std::vector<const InvariantSource *>
ProgramAnalysis::invariantSources() const {
  return {Intervals.get(), Octagons.get(), Karr.get()};
}

std::string ProgramAnalysis::report() const {
  std::ostringstream Out;
  const smt::TermManager &TM = P.termManager();

  Out << "== static analysis report ==\n";
  Out << "threads: " << P.numThreads() << "  actions: " << P.numLetters()
      << "  locations: " << P.size() << "\n\n";

  Out << "locks (" << Locks->locks().Locks.size() << "):";
  for (Term L : Locks->locks().Locks)
    Out << " " << L->name();
  Out << "\n";

  const auto &Dead = Intervals->deadEdges();
  Out << "dead edges (" << Dead.size() << "):";
  for (const DeadEdge &E : Dead)
    Out << " " << P.action(E.EdgeLetter).Name;
  Out << "\n";

  auto Contains = [](const std::vector<DeadEdge> &List, const DeadEdge &E) {
    return std::any_of(List.begin(), List.end(), [&](const DeadEdge &D) {
      return D.ThreadId == E.ThreadId && D.From == E.From &&
             D.EdgeLetter == E.EdgeLetter;
    });
  };

  // Relational pass: how much the octagons see beyond the intervals.
  const auto &ODead = Octagons->deadEdges();
  Out << "octagon dead edges (" << ODead.size() << "):";
  for (const DeadEdge &E : ODead)
    if (!Contains(Dead, E))
      Out << " +" << P.action(E.EdgeLetter).Name;
  Out << "\n";
  Out << "octagon relational locations: "
      << Octagons->numRelationalLocations() << "\n";

  // Affine pass: what Karr sees beyond both cheaper tiers.
  const auto &KDead = Karr->deadEdges();
  Out << "karr dead edges (" << KDead.size() << "):";
  for (const DeadEdge &E : KDead)
    if (!Contains(Dead, E) && !Contains(ODead, E))
      Out << " +" << P.action(E.EdgeLetter).Name;
  Out << "\n";
  Out << "karr affine locations: " << Karr->numAffineLocations() << "\n\n";

  const auto &Races = Racy->races();
  Out << "races (" << Races.size() << "):\n";
  for (const Race &R : Races) {
    Out << "  " << (R.WriteWrite ? "write/write" : "write/read") << " on";
    for (Term V : R.Vars)
      Out << " " << V->name();
    Out << ": `" << P.action(R.First).Name << "` (thread "
        << P.action(R.First).ThreadId << ") vs `" << P.action(R.Second).Name
        << "` (thread " << P.action(R.Second).ThreadId << ")\n";
  }
  if (Races.empty())
    Out << "  none (lockset discipline covers all conflicting pairs)\n";

  const auto &Prot = Racy->protectedPairs();
  Out << "\nlock-protected independent pairs (" << Prot.size() << "):\n";
  for (const ProtectedPair &Pair : Prot)
    Out << "  `" << P.action(Pair.First).Name << "` vs `"
        << P.action(Pair.Second).Name << "` under " << Pair.Lock->name()
        << "\n";
  if (Prot.empty())
    Out << "  none\n";
  (void)TM;
  return Out.str();
}

uint32_t seqver::analysis::pruneDeadEdges(
    prog::ConcurrentProgram &P,
    const std::vector<const InvariantSource *> &Sources, PruneStats *Stats) {
  // Group dead edges by (thread, source) so "would this empty the location"
  // can be answered before touching the CFG. Lists are merged with
  // deduplication; each edge remembers the first source that found it, so
  // the per-source counts measure what the cheaper tiers missed.
  struct Rec {
    Letter EdgeLetter;
    size_t SourceIdx;
  };
  std::map<std::pair<int, Location>, std::vector<Rec>> BySource;
  for (size_t I = 0; I < Sources.size(); ++I)
    for (const DeadEdge &E : Sources[I]->deadEdges()) {
      auto &Recs = BySource[{E.ThreadId, E.From}];
      if (std::none_of(Recs.begin(), Recs.end(), [&](const Rec &R) {
            return R.EdgeLetter == E.EdgeLetter;
          }))
        Recs.push_back({E.EdgeLetter, I});
    }

  uint32_t Removed = 0;
  for (const auto &[Src, Recs] : BySource) {
    const auto &[ThreadId, From] = Src;
    bool Reachable =
        std::all_of(Sources.begin(), Sources.end(),
                    [&, T = ThreadId, L = From](const InvariantSource *S) {
                      return S->reachable(T, L);
                    });
    size_t OutDegree = P.thread(ThreadId).Edges[From].size();
    // Keep a reachable location's last edge: removing all of them would
    // reclassify a stuck (deadlocked) location as a legitimate exit.
    size_t Removable = Reachable && Recs.size() >= OutDegree
                           ? Recs.size() - 1
                           : Recs.size();
    for (size_t I = 0; I < Removable; ++I)
      if (P.removeEdge(ThreadId, From, Recs[I].EdgeLetter)) {
        ++Removed;
        if (Stats)
          ++Stats->BySource[Sources[Recs[I].SourceIdx]->name()];
      }
  }
  if (Stats)
    Stats->Removed += Removed;
  return Removed;
}

uint32_t seqver::analysis::pruneDeadEdges(prog::ConcurrentProgram &P,
                                          PrunePreset Preset,
                                          PruneStats *Stats) {
  IntervalAnalysis Intervals(P);
  std::optional<OctagonAnalysis> Octagons;
  std::optional<KarrAnalysis> Karr;
  std::vector<const InvariantSource *> Sources{&Intervals};
  if (Preset != PrunePreset::IntervalOnly) {
    Octagons.emplace(P);
    Sources.push_back(&*Octagons);
  }
  if (Preset == PrunePreset::Full) {
    Karr.emplace(P);
    Sources.push_back(&*Karr);
  }
  return pruneDeadEdges(P, Sources, Stats);
}
