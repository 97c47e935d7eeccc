//===- support/InternTable.h - Value interning to dense uint32 ids --------===//
///
/// \file
/// Open-addressing intern tables mapping structured values to stable,
/// densely-allocated `uint32_t` ids. The exploration hot paths (Algorithm 2's
/// DFS, the explicit reduction construction of Sec. 5/6) spend their time
/// comparing and copying structured states; interning each component once
/// makes every subsequent compare, hash, and copy a single-integer
/// operation, which is the per-state constant-factor half of the paper's
/// linear-size-reduction scalability argument (Thm. 4.3 / Thm. 7.2).
///
/// Two tables live here:
///  - InternTable<T, Hasher>: generic. Values are stored once in a flat
///    arena (ids index it); the probe index stores (hash, id) pairs so a
///    rehash never re-hashes values and a probe hit rarely touches the
///    arena. Ids are stable for the lifetime of the table, including across
///    rehashes.
///  - SleepSetInterner: a bit-packed specialization for sleep sets over the
///    statement alphabet. Sets are stored once as fixed-width word blocks in
///    one flat arena (one or two machine words inline for alphabets up to
///    64/128 letters, the common case), built in a reusable scratch buffer
///    so the per-successor construction allocates nothing.
///
/// Tables are deliberately not thread-safe: every portfolio worker owns its
/// private interners (see docs/RUNTIME.md), so the hot path takes no locks.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_SUPPORT_INTERNTABLE_H
#define SEQVER_SUPPORT_INTERNTABLE_H

#include "support/Bitset.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace seqver {

/// 64-bit mix in the xxhash/splitmix finalizer family: cheap, and strong
/// enough that the open-addressing tables can probe on the high bits.
inline uint64_t hashMix(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return X;
}

/// Order-dependent combiner (boost::hash_combine shape over hashMix).
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  return Seed ^ (hashMix(Value) + 0x9e3779b97f4a7c15ULL + (Seed << 6) +
                 (Seed >> 2));
}

/// FNV-1a-style fold over a word span; used for bit-packed sleep sets and
/// any value that is ultimately a run of integers.
inline uint64_t hashWords(const uint64_t *Words, size_t Count,
                          uint64_t Seed = 0x2545f4914f6cdd1dULL) {
  uint64_t H = Seed;
  for (size_t I = 0; I < Count; ++I)
    H = hashCombine(H, Words[I]);
  return H;
}

/// Default hasher: integral values, vectors of integral values (product
/// states, predicate sets), and classes exposing `uint64_t hash() const`.
struct DefaultInternHash {
  template <typename T> uint64_t operator()(const T &Value) const {
    if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      return hashMix(static_cast<uint64_t>(Value));
    } else {
      return Value.hash();
    }
  }
  template <typename E>
  uint64_t operator()(const std::vector<E> &Value) const {
    static_assert(std::is_integral_v<E>, "vector elements must be integral");
    uint64_t H = 0x9e3779b97f4a7c15ULL ^ Value.size();
    for (const E &Elem : Value)
      H = hashCombine(H, static_cast<uint64_t>(Elem));
    return H;
  }
};

/// Generic open-addressing intern table. Ids are dense (0, 1, 2, ...) in
/// first-insertion order and stable for the table's lifetime; `values()`
/// exposes the arena in id order, which BFS materialization exploits to get
/// discovery-ordered state vectors for free.
template <typename T, typename Hasher = DefaultInternHash> class InternTable {
public:
  static constexpr uint32_t NotFound = UINT32_MAX;

  InternTable() { rehash(InitialSlots); }

  /// Pre-sizes arena and index for about `Count` distinct values.
  void reserve(size_t Count) {
    Values.reserve(Count);
    Hashes.reserve(Count);
    size_t Needed = InitialSlots;
    while (Needed * MaxLoadNum < Count * MaxLoadDen)
      Needed <<= 1;
    if (Needed > Slots.size())
      rehash(Needed);
  }

  /// Interns Value: returns the existing id or assigns the next dense one.
  /// Inserted (when non-null) reports whether a new id was allocated.
  uint32_t intern(const T &Value, bool *Inserted = nullptr) {
    uint64_t H = Hash(Value);
    size_t Slot = findSlot(H, Value);
    if (Slots[Slot] != Empty) {
      ++HitCount;
      if (Inserted)
        *Inserted = false;
      return Slots[Slot] - 1;
    }
    ++MissCount;
    uint32_t Id = static_cast<uint32_t>(Values.size());
    Values.push_back(Value);
    Hashes.push_back(H);
    Slots[Slot] = Id + 1;
    if (Inserted)
      *Inserted = true;
    if ((Values.size() + 1) * MaxLoadDen > Slots.size() * MaxLoadNum)
      rehash(Slots.size() * 2);
    return Id;
  }

  /// Lookup without insertion; NotFound if absent.
  uint32_t lookup(const T &Value) const {
    uint64_t H = Hash(Value);
    size_t Slot = findSlot(H, Value);
    return Slots[Slot] == Empty ? NotFound : Slots[Slot] - 1;
  }

  const T &operator[](uint32_t Id) const {
    assert(Id < Values.size() && "intern id out of range");
    return Values[Id];
  }

  size_t size() const { return Values.size(); }
  bool empty() const { return Values.empty(); }

  /// Drops all values but keeps the allocated arena and index capacity (and
  /// the cumulative hit/miss counters): per-round reuse re-mallocs nothing.
  void clear() {
    Values.clear();
    Hashes.clear();
    std::fill(Slots.begin(), Slots.end(), Empty);
  }

  /// Arena in id (first-insertion) order.
  const std::vector<T> &values() const { return Values; }
  /// Moves the arena out; the table must not be used afterwards.
  std::vector<T> takeValues() { return std::move(Values); }

  /// Probe statistics: hits = intern() calls that found an existing id.
  uint64_t hits() const { return HitCount; }
  uint64_t misses() const { return MissCount; }

private:
  static constexpr size_t InitialSlots = 64;
  static constexpr uint32_t Empty = 0;
  // Max load factor 7/10.
  static constexpr size_t MaxLoadNum = 7;
  static constexpr size_t MaxLoadDen = 10;

  size_t findSlot(uint64_t H, const T &Value) const {
    size_t Mask = Slots.size() - 1;
    size_t Slot = static_cast<size_t>(H) & Mask;
    while (Slots[Slot] != Empty) {
      uint32_t Id = Slots[Slot] - 1;
      if (Hashes[Id] == H && Values[Id] == Value)
        return Slot;
      Slot = (Slot + 1) & Mask;
    }
    return Slot;
  }

  void rehash(size_t NewSize) {
    Slots.assign(NewSize, Empty);
    size_t Mask = NewSize - 1;
    for (uint32_t Id = 0; Id < Values.size(); ++Id) {
      size_t Slot = static_cast<size_t>(Hashes[Id]) & Mask;
      while (Slots[Slot] != Empty)
        Slot = (Slot + 1) & Mask;
      Slots[Slot] = Id + 1;
    }
  }

  Hasher Hash;
  std::vector<T> Values;     ///< Arena, indexed by id.
  std::vector<uint64_t> Hashes; ///< Cached hash per id (rehash, probe skip).
  std::vector<uint32_t> Slots;  ///< Probe index: 0 = empty, else id + 1.
  uint64_t HitCount = 0;
  uint64_t MissCount = 0;
};

/// Dense id of an interned sleep set (or any letter set).
using SleepSetId = uint32_t;

/// Interner for sets over a fixed letter alphabet. Every distinct set is
/// stored exactly once as a fixed-width block of 64-bit words in one flat
/// arena; alphabets up to 64 (one word) or 128 letters (two words) — the
/// common case — stay fully inline and compare/hash in one or two word
/// operations. Id 0 is always the empty set.
class SleepSetInterner {
public:
  explicit SleepSetInterner(uint32_t NumLetters)
      : Letters(NumLetters),
        WordsPerSet(std::max<size_t>(1, (NumLetters + 63) / 64)),
        Scratch(WordsPerSet, 0) {
    rehash(InitialSlots);
    // Intern the empty set eagerly so EmptySetId is universally valid.
    SleepSetId Id = internScratch();
    assert(Id == EmptySetId);
    (void)Id;
  }

  static constexpr SleepSetId EmptySetId = 0;

  uint32_t numLetters() const { return Letters; }
  size_t wordsPerSet() const { return WordsPerSet; }
  /// True when every set fits the 64/128-bit inline representation.
  bool inlineWords() const { return WordsPerSet <= 2; }

  bool test(SleepSetId Id, uint32_t Letter) const {
    assert(Letter < Letters && "letter out of range");
    const uint64_t *W = wordsOf(Id);
    return (W[Letter / 64] >> (Letter % 64)) & 1;
  }

  bool isEmpty(SleepSetId Id) const {
    const uint64_t *W = wordsOf(Id);
    for (size_t I = 0; I < WordsPerSet; ++I)
      if (W[I] != 0)
        return false;
    return true;
  }

  size_t count(SleepSetId Id) const {
    const uint64_t *W = wordsOf(Id);
    size_t Total = 0;
    for (size_t I = 0; I < WordsPerSet; ++I)
      Total += static_cast<size_t>(__builtin_popcountll(W[I]));
    return Total;
  }

  /// Scratch-building protocol: clear, set letters, intern. The single
  /// scratch buffer is reused across calls, so successor-set construction
  /// performs no allocation once the arena is warm.
  void scratchClear() {
    for (size_t I = 0; I < WordsPerSet; ++I)
      Scratch[I] = 0;
  }
  void scratchSet(uint32_t Letter) {
    assert(Letter < Letters && "letter out of range");
    Scratch[Letter / 64] |= uint64_t(1) << (Letter % 64);
  }
  /// Loads an existing set into the scratch buffer (e.g. to extend it).
  void scratchAssign(SleepSetId Id) {
    const uint64_t *W = wordsOf(Id);
    for (size_t I = 0; I < WordsPerSet; ++I)
      Scratch[I] = W[I];
  }

  SleepSetId internScratch() {
    uint64_t H = hashWords(Scratch.data(), WordsPerSet);
    size_t Slot = findSlot(H, Scratch.data());
    if (Slots[Slot] != Empty) {
      ++HitCount;
      return Slots[Slot] - 1;
    }
    ++MissCount;
    SleepSetId Id = static_cast<SleepSetId>(Hashes.size());
    Arena.insert(Arena.end(), Scratch.begin(), Scratch.end());
    Hashes.push_back(H);
    Slots[Slot] = Id + 1;
    if ((Hashes.size() + 1) * MaxLoadDen > Slots.size() * MaxLoadNum)
      rehash(Slots.size() * 2);
    return Id;
  }

  /// Bitset round trip; used only by tests (intern_test.cpp).
  SleepSetId intern(const Bitset &Set) {
    assert(Set.capacity() == Letters && "alphabet mismatch");
    scratchClear();
    Set.forEach([this](size_t Letter) {
      scratchSet(static_cast<uint32_t>(Letter));
    });
    return internScratch();
  }
  Bitset toBitset(SleepSetId Id) const {
    Bitset Out(Letters);
    const uint64_t *W = wordsOf(Id);
    for (uint32_t L = 0; L < Letters; ++L)
      if ((W[L / 64] >> (L % 64)) & 1)
        Out.set(L);
    return Out;
  }

  /// Number of distinct sets interned so far (the "peak" by monotonicity).
  size_t size() const { return Hashes.size(); }
  uint64_t hits() const { return HitCount; }
  uint64_t misses() const { return MissCount; }

private:
  static constexpr size_t InitialSlots = 64;
  static constexpr uint32_t Empty = 0;
  static constexpr size_t MaxLoadNum = 7;
  static constexpr size_t MaxLoadDen = 10;

  const uint64_t *wordsOf(SleepSetId Id) const {
    assert(static_cast<size_t>(Id) < Hashes.size() && "sleep id out of range");
    return Arena.data() + static_cast<size_t>(Id) * WordsPerSet;
  }

  size_t findSlot(uint64_t H, const uint64_t *Words) const {
    size_t Mask = Slots.size() - 1;
    size_t Slot = static_cast<size_t>(H) & Mask;
    while (Slots[Slot] != Empty) {
      uint32_t Id = Slots[Slot] - 1;
      if (Hashes[Id] == H) {
        const uint64_t *Stored = wordsOf(Id);
        bool Equal = true;
        for (size_t I = 0; I < WordsPerSet; ++I)
          if (Stored[I] != Words[I]) {
            Equal = false;
            break;
          }
        if (Equal)
          return Slot;
      }
      Slot = (Slot + 1) & Mask;
    }
    return Slot;
  }

  void rehash(size_t NewSize) {
    Slots.assign(NewSize, Empty);
    size_t Mask = NewSize - 1;
    for (uint32_t Id = 0; Id < Hashes.size(); ++Id) {
      size_t Slot = static_cast<size_t>(Hashes[Id]) & Mask;
      while (Slots[Slot] != Empty)
        Slot = (Slot + 1) & Mask;
      Slots[Slot] = Id + 1;
    }
  }

  uint32_t Letters;
  size_t WordsPerSet;
  std::vector<uint64_t> Scratch; ///< Reused set-under-construction buffer.
  std::vector<uint64_t> Arena;   ///< WordsPerSet words per id, contiguous.
  std::vector<uint64_t> Hashes;  ///< Hash per id.
  std::vector<uint32_t> Slots;   ///< Probe index: 0 = empty, else id + 1.
  uint64_t HitCount = 0;
  uint64_t MissCount = 0;
};

} // namespace seqver

#endif // SEQVER_SUPPORT_INTERNTABLE_H
