//===- core/Verifier.h - Trace abstraction with sequentialization ---------===//
///
/// \file
/// The paper's overall verification algorithm (Sec. 7.2): counterexample-
/// guided trace abstraction refinement whose proof check constructs the
/// reduction on the fly (Algorithm 2). The same engine, with the reduction
/// machinery disabled, serves as the Automizer-style baseline of the
/// evaluation (Sec. 8).
///
/// One refinement round runs CheckProof: a DFS over tuples (product state,
/// order context, proof assertion, sleep set). Sleeping letters and letters
/// outside the compatible weakly persistent membrane are pruned; sleep set
/// successors use proof-sensitive conditional commutativity (Def. 7.3) when
/// enabled. Reaching an error state yields a counterexample trace; feasible
/// traces witness a bug, infeasible ones refine the proof with their wp
/// chain. Completed counterexample-free subtrees are cached as "useless" and
/// skipped in later rounds under stronger assertions (monotonicity of
/// proof-sensitive commutativity, Sec. 7.2).
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_CORE_VERIFIER_H
#define SEQVER_CORE_VERIFIER_H

#include "core/Proof.h"
#include "core/TraceAnalysis.h"
#include "program/Program.h"
#include "reduction/Commutativity.h"
#include "reduction/PersistentSets.h"
#include "reduction/PreferenceOrder.h"
#include "runtime/Cancellation.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <memory>
#include <string>
#include <vector>

namespace seqver {
namespace core {

/// Tuning knobs for one verifier instance (one preference order).
struct VerifierConfig {
  /// Preference order driving the reduction; null disables ordering-based
  /// pruning (required when UseSleepSets is false and baseline mode).
  const red::PreferenceOrder *Order = nullptr;
  bool UseSleepSets = true;
  bool UsePersistentSets = true;
  /// Conditional commutativity from the current proof assertion (Sec. 7.2).
  bool ProofSensitive = true;
  /// Reuse of counterexample-free subtrees across rounds.
  bool UselessStateCache = true;
  /// After a Correct verdict, greedily drop pool predicates while the proof
  /// check still succeeds, reporting the shrunk pool as MinimizedProofSize.
  /// This makes proof sizes comparable with the paper's (wp chains
  /// enumerate more candidates than the interpolants of the paper's
  /// implementation, but most are redundant).
  bool MinimizeProof = false;
  red::CommutativityChecker::Mode CommutMode =
      red::CommutativityChecker::Mode::Semantic;
  /// Solver-free static commutativity tier between the syntactic and
  /// semantic ones. Sound: the tier proves the same obligations the SMT
  /// tier would check, so disabling it can only cost time, never change a
  /// verdict.
  bool StaticTier = true;
  /// Octagon sub-tier of the static tier: run the relational invariant
  /// analysis once and let static commutativity strengthen its obligations
  /// with the letters' source-location invariants (conditional
  /// commutativity modulo location invariants; sound because adjacent-swap
  /// pre-states satisfy both invariants — see StaticCommutativity::decide).
  /// Only consulted when StaticTier is on and CommutMode is not Full.
  bool OctagonTier = true;
  /// Karr sub-tier of the static tier: run the affine-equality analysis
  /// once and let static commutativity strengthen still-open obligations
  /// with per-location affine equalities (`total == 2*i`), on top of the
  /// octagon invariants. Same soundness argument as OctagonTier. Also
  /// gates Karr proof seeding when SeedProof is on. Only consulted when
  /// StaticTier is on and CommutMode is not Full.
  bool KarrTier = true;
  /// Seed the proof automaton's predicate pool with the octagon (and, when
  /// KarrTier is on, the Karr) analysis's per-location invariant atoms
  /// before round 1. Sound regardless of seed quality (predicates enter
  /// automaton states only through SMT-checked Hoare triples); typically
  /// saves refinement rounds on loop-heavy programs. Off by default to
  /// keep round counts comparable with the paper's unseeded refinement
  /// loop.
  bool SeedProof = false;
  /// Directory of the persistent proof cache (docs/PERSIST.md); empty
  /// disables it. On construction the verifier fingerprints the program
  /// and, on a cache hit, warm-starts the proof automaton with the stored
  /// predicates through the same Hoare-gated seam as SeedProof — so a
  /// stale or poisoned cache can cost time, never soundness. The stored
  /// verdict is never trusted; every run re-verifies. A decisive verdict is
  /// written back (the predicate pool for Correct, an empty record for
  /// Incorrect).
  std::string CacheDir;
  /// Shared commutativity oracle (reduction/CommutOracle.h): a second-level
  /// memo table under manager-independent canonical keys, installed into
  /// this verifier's CommutativityChecker. Non-owning; the caller keeps the
  /// oracle alive for the run and decides its scope — the parallel
  /// portfolio shares one across all workers (ParallelConfig::SharedCommut),
  /// and the CLI hands one to all its verifiers. Null keeps the
  /// historical private-cache-only behavior.
  red::CommutOracle *SharedCommut = nullptr;
  /// Incremental SMT (docs/PERF.md §7): commutativity and Hoare queries run
  /// through per-pair / per-letter smt::Sessions, so the encoding, learned
  /// clauses and theory lemmas persist across the query stream
  /// instead of being rebuilt per query. Verdict-neutral by construction
  /// (assumption-based activation never changes satisfiability, and the
  /// consumers replicate the fresh path's fast paths); the `incremental`
  /// axis of the differential gate (docs/CHECKS.md) enforces this. Disable
  /// with --no-incremental to get one fresh solver instance per query.
  bool IncrementalSmt = true;
  /// Per-run deadline; mapped onto the cancellation mechanism (the verifier
  /// arms an internal runtime::CancellationToken deadline and polls it at
  /// the same sites as Cancel below). Non-positive disables.
  double TimeoutSeconds = 60;
  /// External cancellation token (the parallel portfolio's race). Polled in
  /// the refinement loop, inside the proof-check DFS, and before each
  /// semantic commutativity query; see docs/RUNTIME.md for the contract.
  /// Null means "never cancelled externally". The token is read-only here;
  /// only the scheduler requests cancellation.
  const runtime::CancellationToken *Cancel = nullptr;
  /// Seed base of the portfolio's random orders: they are
  /// rand(RandSeedBase+1) .. rand(RandSeedBase+red::NumRandomOrders).
  /// Seeds derive from this config — never from shared RNG state — so
  /// parallel portfolio runs are reproducible and race-free.
  uint64_t RandSeedBase = 0;

  /// Baseline configuration: C with every reduction switched off, so the
  /// verifier explores all interleavings (the Automizer role of Sec. 8).
  static VerifierConfig baseline() { return baseline(VerifierConfig()); }
  static VerifierConfig baseline(VerifierConfig C) {
    C.Order = nullptr;
    C.UseSleepSets = false;
    C.UsePersistentSets = false;
    C.ProofSensitive = false;
    return C;
  }
};

enum class Verdict : uint8_t {
  Correct,   ///< proof found covering (a reduction of) all error traces
  Incorrect, ///< feasible error trace found
  Timeout,   ///< resource budget exhausted
  Unknown,   ///< solver gave up on a decisive query
  Cancelled, ///< stopped by an external cancellation request (portfolio race)
};

std::string verdictName(Verdict V);

/// True iff V settles the instance (the portfolio's termination condition).
inline bool isDecisive(Verdict V) {
  return V == Verdict::Correct || V == Verdict::Incorrect;
}

struct VerificationResult {
  Verdict V = Verdict::Unknown;
  int Rounds = 0;
  /// Number of assertions in the final proof (the paper's proof size).
  size_t ProofSize = 0;
  /// Size of the greedily-minimized proof; 0 unless
  /// VerifierConfig::MinimizeProof was set and the verdict is Correct.
  size_t MinimizedProofSize = 0;
  double Seconds = 0;
  /// Feasible error trace (for Incorrect).
  std::vector<automata::Letter> Witness;
  /// Pretty-printed assertions of the final proof (for Correct): the pool
  /// of Floyd/Hoare predicates the covering annotation draws from.
  std::vector<std::string> ProofAssertions;
  /// Peak DFS states visited in one round (memory proxy) and more.
  Statistics Stats;
};

/// Verifies one program under one configuration.
class Verifier {
public:
  Verifier(const prog::ConcurrentProgram &P, const VerifierConfig &Config);
  ~Verifier();

  VerificationResult run();

private:
  class Impl;
  std::unique_ptr<Impl> ImplPtr;
};

} // namespace core
} // namespace seqver

#endif // SEQVER_CORE_VERIFIER_H
