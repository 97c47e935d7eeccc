//===- tests/intern_test.cpp - InternTable / SleepSetInterner -------------===//
///
/// Unit tests for the hot-path interning layer (docs/PERF.md): dense id
/// allocation, id stability across rehashes, behavior under adversarial
/// (colliding) hashes, and equivalence of the inline 64/128-bit sleep-set
/// representation with the multi-word spilled one.
///
//===----------------------------------------------------------------------===//

#include "support/Bitset.h"
#include "support/InternTable.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace seqver;

namespace {

//===----------------------------------------------------------------------===//
// InternTable
//===----------------------------------------------------------------------===//

TEST(InternTableTest, DenseIdsInInsertionOrder) {
  InternTable<uint64_t> Table;
  EXPECT_TRUE(Table.empty());
  for (uint64_t V = 0; V < 100; ++V) {
    bool Inserted = false;
    EXPECT_EQ(Table.intern(V * 17, &Inserted), V);
    EXPECT_TRUE(Inserted);
  }
  EXPECT_EQ(Table.size(), 100u);
  // Re-interning returns the original id and reports no insertion.
  for (uint64_t V = 0; V < 100; ++V) {
    bool Inserted = true;
    EXPECT_EQ(Table.intern(V * 17, &Inserted), V);
    EXPECT_FALSE(Inserted);
  }
  EXPECT_EQ(Table.size(), 100u);
  EXPECT_EQ(Table.hits(), 100u);
  EXPECT_EQ(Table.misses(), 100u);
}

TEST(InternTableTest, LookupDoesNotInsert) {
  InternTable<uint64_t> Table;
  EXPECT_EQ(Table.lookup(42), InternTable<uint64_t>::NotFound);
  uint32_t Id = Table.intern(42);
  EXPECT_EQ(Table.lookup(42), Id);
  EXPECT_EQ(Table.lookup(43), InternTable<uint64_t>::NotFound);
  EXPECT_EQ(Table.size(), 1u);
}

TEST(InternTableTest, IdsStableAcrossRehash) {
  // 10000 values force many doublings past the 64-slot initial index.
  InternTable<std::vector<uint32_t>> Table;
  std::vector<std::vector<uint32_t>> Keys;
  std::mt19937 Rng(7);
  for (uint32_t I = 0; I < 10000; ++I) {
    std::vector<uint32_t> Key(1 + I % 5);
    for (uint32_t &Elem : Key)
      Elem = Rng();
    Key.push_back(I); // force distinctness
    Keys.push_back(Key);
    ASSERT_EQ(Table.intern(Key), I);
  }
  // Every id still resolves to its original key, and re-interning any key
  // returns the id assigned before the rehashes.
  for (uint32_t I = 0; I < Keys.size(); ++I) {
    EXPECT_EQ(Table[I], Keys[I]);
    EXPECT_EQ(Table.intern(Keys[I]), I);
    EXPECT_EQ(Table.lookup(Keys[I]), I);
  }
}

/// Adversarial hasher: every value lands in the same bucket, so probing
/// degenerates to a linear scan and correctness rests on the equality check
/// alone.
struct CollidingHash {
  template <typename T> uint64_t operator()(const T &) const {
    return 0x1234;
  }
};

TEST(InternTableTest, CollisionHeavyKeysStayDistinct) {
  InternTable<uint64_t, CollidingHash> Table;
  for (uint64_t V = 0; V < 500; ++V)
    EXPECT_EQ(Table.intern(V), V);
  EXPECT_EQ(Table.size(), 500u);
  for (uint64_t V = 0; V < 500; ++V) {
    EXPECT_EQ(Table.lookup(V), V);
    EXPECT_EQ(Table[static_cast<uint32_t>(V)], V);
  }
  EXPECT_EQ(Table.lookup(500), (InternTable<uint64_t, CollidingHash>::NotFound));
}

TEST(InternTableTest, ClearKeepsCapacityAndReassignsFromZero) {
  InternTable<uint64_t> Table;
  for (uint64_t V = 0; V < 300; ++V)
    Table.intern(V);
  Table.clear();
  EXPECT_TRUE(Table.empty());
  // Fresh ids start at 0 again; previously-interned values are gone.
  EXPECT_EQ(Table.lookup(0), InternTable<uint64_t>::NotFound);
  EXPECT_EQ(Table.intern(999), 0u);
  EXPECT_EQ(Table.intern(0), 1u);
}

/// Structured key exercising the `hash()` member protocol of
/// DefaultInternHash, mirroring the reduction state structs.
struct StructuredKey {
  uint32_t Q = 0;
  uint64_t Ctx = 0;
  bool operator==(const StructuredKey &) const = default;
  uint64_t hash() const { return hashCombine(hashMix(Q), Ctx); }
};

TEST(InternTableTest, HashMemberProtocol) {
  InternTable<StructuredKey> Table;
  uint32_t A = Table.intern({1, 7});
  uint32_t B = Table.intern({2, 7});
  uint32_t C = Table.intern({1, 8});
  EXPECT_NE(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(Table.intern({1, 7}), A);
  EXPECT_EQ(Table[A].Q, 1u);
  EXPECT_EQ(Table[A].Ctx, 7u);
}

//===----------------------------------------------------------------------===//
// SleepSetInterner
//===----------------------------------------------------------------------===//

/// Interns Set through the scratch protocol.
SleepSetId internBitset(SleepSetInterner &Intern, const Bitset &Set) {
  Intern.scratchClear();
  Set.forEach(
      [&Intern](size_t Letter) { Intern.scratchSet(uint32_t(Letter)); });
  return Intern.internScratch();
}

/// Reference model: interner behavior must match naive Bitsets for any
/// alphabet width. Exercised at one-word (inline 64), two-word (inline 128),
/// and spilled (>128) widths.
void roundTripAlphabet(uint32_t NumLetters) {
  SleepSetInterner Intern(NumLetters);
  EXPECT_EQ(Intern.numLetters(), NumLetters);
  EXPECT_EQ(Intern.inlineWords(), NumLetters <= 128);
  EXPECT_TRUE(Intern.isEmpty(SleepSetInterner::EmptySetId));
  EXPECT_EQ(Intern.count(SleepSetInterner::EmptySetId), 0u);

  std::mt19937 Rng(NumLetters);
  std::vector<Bitset> Sets;
  std::vector<SleepSetId> Ids;
  for (int I = 0; I < 200; ++I) {
    Bitset Set(NumLetters);
    for (uint32_t L = 0; L < NumLetters; ++L)
      if (Rng() % 3 == 0)
        Set.set(L);
    SleepSetId Id = internBitset(Intern, Set);
    // Same set -> same id, regardless of how it was built.
    EXPECT_EQ(internBitset(Intern, Set), Id);
    Sets.push_back(Set);
    Ids.push_back(Id);
  }
  for (size_t I = 0; I < Sets.size(); ++I) {
    // Bit-exact membership through the word arena.
    size_t Expected = 0;
    for (uint32_t L = 0; L < NumLetters; ++L) {
      EXPECT_EQ(Intern.test(Ids[I], L), Sets[I].test(L));
      Expected += Sets[I].test(L);
    }
    EXPECT_EQ(Intern.count(Ids[I]), Expected);
    EXPECT_EQ(Intern.isEmpty(Ids[I]), Expected == 0);
  }
}

TEST(SleepSetInternerTest, InlineOneWordAlphabet) { roundTripAlphabet(17); }
TEST(SleepSetInternerTest, InlineWordBoundary) { roundTripAlphabet(64); }
TEST(SleepSetInternerTest, InlineTwoWordAlphabet) { roundTripAlphabet(128); }
TEST(SleepSetInternerTest, SpilledAlphabet) { roundTripAlphabet(200); }

TEST(SleepSetInternerTest, InlineAndSpilledAgreeOnSharedPrefix) {
  // The same family of sets over the first 60 letters must intern to the
  // same id sequence whether the alphabet is inline (60) or spilled (300):
  // representation width is invisible to id assignment.
  SleepSetInterner Inline(60), Spilled(300);
  std::mt19937 Rng(42);
  for (int I = 0; I < 300; ++I) {
    Inline.scratchClear();
    Spilled.scratchClear();
    for (uint32_t L = 0; L < 60; ++L)
      if (Rng() % 4 == 0) {
        Inline.scratchSet(L);
        Spilled.scratchSet(L);
      }
    EXPECT_EQ(Inline.internScratch(), Spilled.internScratch());
  }
  EXPECT_EQ(Inline.size(), Spilled.size());
}

TEST(SleepSetInternerTest, ScratchProtocolIgnoresInsertionOrder) {
  SleepSetInterner Intern(90);
  Intern.scratchClear();
  Intern.scratchSet(3);
  Intern.scratchSet(65);
  Intern.scratchSet(89);
  SleepSetId Forward = Intern.internScratch();

  Intern.scratchClear();
  Intern.scratchSet(89);
  Intern.scratchSet(65);
  Intern.scratchSet(3);
  EXPECT_EQ(Intern.internScratch(), Forward);

  // scratchAssign loads an existing set for extension.
  Intern.scratchAssign(Forward);
  Intern.scratchSet(10);
  SleepSetId Extended = Intern.internScratch();
  EXPECT_NE(Extended, Forward);
  EXPECT_TRUE(Intern.test(Extended, 3));
  EXPECT_TRUE(Intern.test(Extended, 10));
  EXPECT_TRUE(Intern.test(Extended, 65));
  EXPECT_TRUE(Intern.test(Extended, 89));
  EXPECT_EQ(Intern.count(Extended), 4u);
}

TEST(SleepSetInternerTest, IdsStableAcrossRehash) {
  SleepSetInterner Intern(32);
  std::vector<SleepSetId> Ids;
  // 2^12 distinct subsets of a 32-letter alphabet: several index doublings.
  for (uint32_t V = 0; V < 4096; ++V) {
    Intern.scratchClear();
    for (uint32_t B = 0; B < 12; ++B)
      if ((V >> B) & 1)
        Intern.scratchSet(B);
    Ids.push_back(Intern.internScratch());
  }
  for (uint32_t V = 0; V < 4096; ++V) {
    Intern.scratchClear();
    for (uint32_t B = 0; B < 12; ++B)
      if ((V >> B) & 1)
        Intern.scratchSet(B);
    EXPECT_EQ(Intern.internScratch(), Ids[V]);
  }
  EXPECT_EQ(Intern.size(), 4096u);
  EXPECT_EQ(Intern.hits(), 4097u); // 4096 re-interns + the dup empty set
}

TEST(SleepSetInternerTest, HitMissCounters) {
  SleepSetInterner Intern(16);
  EXPECT_EQ(Intern.misses(), 1u); // the eager empty set
  Intern.scratchClear();
  Intern.scratchSet(2);
  Intern.internScratch();
  Intern.scratchClear();
  Intern.scratchSet(2);
  Intern.internScratch();
  EXPECT_EQ(Intern.misses(), 2u);
  EXPECT_EQ(Intern.hits(), 1u);
}

} // namespace
