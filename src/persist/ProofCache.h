//===- persist/ProofCache.h - Versioned on-disk proof store ---------------===//
///
/// \file
/// A durable, content-addressed store of verification proofs: one file per
/// program fingerprint under a cache directory, named `<32hex>.proof`.
///
/// On-disk format (text, one record per file):
///
/// \verbatim
///   seqver-proof-cache 1          format magic + version
///   fingerprint <32 hex digits>   must match the file's key
///   verdict correct|incorrect     the producing run's verdict
///   order <name>                  preference order that produced the proof
///   rounds <n>                    refinement rounds the producing run took
///   predicates <n>                number of predicate lines that follow
///   <canonical term text> ...     one predicate per line (TermIO grammar)
///   checksum <16 hex digits>      FNV-1a 64 over every preceding byte
/// \endverbatim
///
/// Trust model: **nothing in a cache file is trusted.** A load only
/// succeeds if the version, fingerprint, counts and trailing checksum all
/// agree, and even then the consumer re-verifies from scratch — the
/// stored verdict is never returned as an answer, and the predicates only
/// enter the proof automaton through the Hoare-gated
/// `ProofAutomaton::addSeedPredicates` seam. A corrupt, stale, or
/// deliberately poisoned entry therefore costs wasted seeding time, never
/// soundness (docs/PERSIST.md).
///
/// Concurrency: `store` writes a unique temp file in the cache directory
/// and renames it over the destination. POSIX rename is atomic, so racing
/// writers (parallel portfolio workers, concurrent seqver processes)
/// yield last-writer-wins with no torn reads.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_PERSIST_PROOFCACHE_H
#define SEQVER_PERSIST_PROOFCACHE_H

#include "persist/Fingerprint.h"

#include <cstdint>
#include <string>
#include <vector>

namespace seqver {
namespace persist {

/// One cache record: the producing run's verdict, preference order,
/// round count, and final predicate basis in canonical text form.
struct StoredProof {
  std::string Verdict; ///< "correct" or "incorrect"
  std::string Order;   ///< preference-order id of the producing run
  uint64_t Rounds = 0; ///< refinement rounds the producing run took
  std::vector<std::string> Predicates;
};

/// Handle on one cache directory. Copyable and stateless apart from the
/// path; safe to share across threads (all methods touch only the
/// filesystem).
class ProofCache {
public:
  /// An empty directory disables the cache (enabled() == false).
  explicit ProofCache(std::string Directory);

  bool enabled() const { return !Dir.empty(); }

  /// Creates the cache directory (and parents) if missing. Returns false
  /// with *Error set when the directory cannot be used.
  bool prepare(std::string *Error = nullptr) const;

  /// Absolute path of the record for FP.
  std::string pathFor(const Fingerprint &FP) const;

  /// Loads the record for FP. Returns false — never throws, never
  /// asserts — on a missing file, size over MaxFileBytes, malformed
  /// header, version or fingerprint mismatch, bad counts, or checksum
  /// failure. A rejected record is treated exactly like a miss.
  bool load(const Fingerprint &FP, StoredProof &Out) const;

  /// Atomically (re)writes the record for FP: unique temp file, then
  /// rename. Returns false if the directory is unusable. Concurrent
  /// stores of the same fingerprint end last-writer-wins. After a
  /// successful write the directory is brought back under the MaxEntries /
  /// MaxTotalBytes caps by deleting records oldest-modification-time
  /// first; *Evicted (when non-null) receives the number of records
  /// removed. Losing a record is always safe — the cache is a warm-start
  /// hint, never an answer — so racing evictions at worst delete a file
  /// twice (the second remove is a no-op).
  bool store(const Fingerprint &FP, const StoredProof &Proof,
             uint64_t *Evicted = nullptr) const;

  /// Deletes `.proof` records, oldest modification time first, until the
  /// directory is within both caps. Returns the number removed. Called by
  /// store(); exposed for tests and offline maintenance.
  uint64_t evictOverCap() const;

  /// Hard ceiling on a record's byte size; larger files are rejected
  /// unread so an adversarial cache directory cannot balloon memory.
  static constexpr uint64_t MaxFileBytes = 8u << 20;
  /// Hard ceiling on the predicate count a record may declare.
  static constexpr uint64_t MaxPredicates = 1u << 16;
  /// Eviction caps: record count and total byte size the directory is
  /// trimmed back to at store time.
  static constexpr uint64_t MaxEntries = 256;
  static constexpr uint64_t MaxTotalBytes = 64u << 20;

private:
  std::string Dir;
};

} // namespace persist
} // namespace seqver

#endif // SEQVER_PERSIST_PROOFCACHE_H
