//===- reduction/CommutOracle.h - Shared commutativity memo table ---------===//
///
/// \file
/// A process-wide oracle for settled (conditional) commutativity queries,
/// shared by every CommutativityChecker that is handed a pointer to it —
/// all parallel-portfolio workers in particular (ParallelConfig::
/// SharedCommut): a pair any worker settles is settled for the fleet.
///
/// **Canonical key.** The per-checker cache keys on raw `smt::Term`
/// pointers, which are meaningless outside one TermManager. The oracle
/// instead keys on the 128-bit DualMixer hash (persist/Fingerprint.h) of
/// the query's *canonical text*: the two actions rendered prim by prim
/// through `TermManager::str` (the codebase's one canonical text form,
/// persist/TermIO.h) with the lower letter first, and the context Phi
/// rendered the same way (`nullptr` and literal `true` both canonicalize
/// to "true"). The answer to a commutativity query is a function of
/// exactly this text — the symbolic compositions and the unsat checks see
/// nothing else — so equal texts may soundly share one answer across
/// managers, workers, and refinement rounds.
///
/// **Collisions.** Keys store only the 128-bit hash, not the text; two
/// distinct queries colliding in all 128 bits would alias an answer. Both
/// mixer halves are independent, putting the birthday bound near 2^-64
/// for any realistic table — the same residual risk the proof cache's
/// fingerprint carries, documented rather than defended against
/// (docs/PERSIST.md).
///
/// **Sharding.** The table is striped over 16 shards, each a mutex plus a
/// hash map, selected by key bits that the in-shard hash does not reuse.
/// clear() empties every shard but keeps bucket capacity, matching the
/// clear-keeps-capacity discipline of support/InternTable.h.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_REDUCTION_COMMUTORACLE_H
#define SEQVER_REDUCTION_COMMUTORACLE_H

#include "persist/Fingerprint.h"
#include "program/Program.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace seqver {
namespace red {

/// Result of a shared-table lookup.
enum class OracleAnswer : uint8_t {
  Unknown,   ///< nobody settled this query yet
  Commutes,  ///< settled: the actions commute under the context
  Dependent, ///< settled: they do not (or the solver gave up — still sound)
};

/// Renders A in the canonical per-prim text form the oracle keys on:
/// thread id, then every primitive through TermManager::str / strSum.
/// Identical across TermManagers for programs built from the same source.
std::string canonicalActionText(const smt::TermManager &TM,
                                const prog::Action &A);

/// Thread-safe shared memo table; see file comment. All methods are safe
/// to call concurrently.
class CommutOracle {
public:
  CommutOracle() = default;
  CommutOracle(const CommutOracle &) = delete;
  CommutOracle &operator=(const CommutOracle &) = delete;

  /// Key for the query (ActMinText, ActMaxText, PhiText); the caller
  /// orders the action texts by letter and canonicalizes a trivial Phi to
  /// "true" (CommutativityChecker does both).
  static persist::Fingerprint makeKey(const std::string &ActMinText,
                                      const std::string &ActMaxText,
                                      const std::string &PhiText);

  OracleAnswer lookup(const persist::Fingerprint &Key) const;

  /// Records a settled answer. First-writer-wins on a racing duplicate
  /// (all writers for one key are computing the same sound answer, so
  /// which one lands is immaterial). Never call for a cancelled or
  /// undecided query — only proven answers enter the table.
  void publish(const persist::Fingerprint &Key, bool Commutes);

  /// Empties every shard, keeping bucket capacity.
  void clear();
  size_t size() const;

private:
  static constexpr size_t NumShards = 16;
  struct KeyHash {
    size_t operator()(const persist::Fingerprint &K) const {
      return static_cast<size_t>(K.Lo);
    }
  };
  struct Shard {
    mutable std::mutex M;
    std::unordered_map<persist::Fingerprint, bool, KeyHash> Map;
  };
  // Shard selection uses Hi bits so the in-shard hash (Lo) stays fully
  // mixed within each shard.
  Shard &shardFor(const persist::Fingerprint &Key) {
    return Shards[Key.Hi & (NumShards - 1)];
  }
  const Shard &shardFor(const persist::Fingerprint &Key) const {
    return Shards[Key.Hi & (NumShards - 1)];
  }

  Shard Shards[NumShards];
};

} // namespace red
} // namespace seqver

#endif // SEQVER_REDUCTION_COMMUTORACLE_H
