//===- reduction/PreferenceOrder.h - Preference orders (Sec. 4) -----------===//
///
/// \file
/// Preference orders over interleavings, given as positional lexicographic
/// orders (Def. 4.5): a total strict order over statement letters that may
/// depend on the *context* reached by the current prefix. Contexts are
/// opaque tokens threaded through the reduction constructions; non-positional
/// orders ignore them.
///
/// A context token generalizes "state of the DFA A" from Def. 4.5: the
/// constructions unroll the input automaton by context (exactly as they
/// unroll by sleep set), so any context-deterministic order is an
/// A'-positional order for the unrolled automaton A'. The lockstep order of
/// Example 4.6 ("rotate thread priorities after each step") is the canonical
/// positional instance.
///
/// Implemented orders, matching the evaluation (Sec. 8):
///   - seq:      thread-uniform, non-positional (sequential composition)
///   - lockstep: positional round-robin rotation
///   - random:   non-positional pseudo-random letter permutation, seeded
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_REDUCTION_PREFERENCEORDER_H
#define SEQVER_REDUCTION_PREFERENCEORDER_H

#include "program/Program.h"
#include "support/Random.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace seqver {
namespace red {

/// A positional lexicographic preference order over letters.
class PreferenceOrder {
public:
  /// Opaque positional context; InitialContext for the empty prefix.
  using Context = uint64_t;
  static constexpr Context InitialContext = 0;

  virtual ~PreferenceOrder();

  /// Strict total order <_ctx: true iff A is preferred over (smaller than) B
  /// in this context. Must be a strict total order for each fixed context.
  virtual bool less(Context Ctx, automata::Letter A,
                    automata::Letter B) const = 0;

  /// Context after extending the prefix with L.
  virtual Context advance(Context Ctx, automata::Letter L) const {
    (void)L;
    return Ctx;
  }

  /// True if the order never depends on the context.
  virtual bool isPositional() const { return false; }

  virtual std::string name() const = 0;

  /// Rank vector convenience: position of each letter in the total order of
  /// this context (0 = most preferred).
  std::vector<uint32_t> ranks(Context Ctx, uint32_t NumLetters) const;
};

/// Thread-uniform non-positional order ("seq", Sec. 4.1): letters ordered by
/// owning thread first, then by letter index. Induces sequential composition
/// of threads under full commutativity (Thm. 4.3).
class SequentialOrder : public PreferenceOrder {
public:
  explicit SequentialOrder(const prog::ConcurrentProgram &P);
  bool less(Context Ctx, automata::Letter A,
            automata::Letter B) const override;
  std::string name() const override { return "seq"; }

private:
  std::vector<int> ThreadOf; // by letter
};

/// Positional round-robin order ("lockstep", Example 4.6): the context is
/// 1 + the thread that moved last (0 initially); thread priorities rotate so
/// the next thread is preferred.
class LockstepOrder : public PreferenceOrder {
public:
  explicit LockstepOrder(const prog::ConcurrentProgram &P);
  bool less(Context Ctx, automata::Letter A,
            automata::Letter B) const override;
  Context advance(Context Ctx, automata::Letter L) const override;
  bool isPositional() const override { return true; }
  std::string name() const override { return "lockstep"; }

private:
  uint32_t threadRank(Context Ctx, int Thread) const;
  std::vector<int> ThreadOf;
  int NumThreads;
};

/// Non-positional pseudo-random permutation of the letters, seeded (Sec. 8's
/// rand(1), rand(2), rand(3)).
class RandomOrder : public PreferenceOrder {
public:
  RandomOrder(const prog::ConcurrentProgram &P, uint64_t Seed);
  bool less(Context Ctx, automata::Letter A,
            automata::Letter B) const override;
  std::string name() const override {
    return "rand(" + std::to_string(Seed) + ")";
  }

private:
  uint64_t Seed;
  std::vector<uint32_t> Rank; // by letter
};

/// Random orders in the portfolio of Sec. 8 (rand(1..3) in the paper).
constexpr int NumRandomOrders = 3;

/// Factory for the portfolio of Sec. 8: seq, lockstep, then
/// NumRandomOrders random orders seeded RandSeedBase+1 ..
/// RandSeedBase+NumRandomOrders. Seeds are derived from the caller's
/// configuration (see core::VerifierConfig::RandSeedBase) — never from
/// shared RNG state — so every portfolio participant can rebuild the
/// identical order list independently, including concurrently. The default
/// argument reproduces the paper's seq, lockstep, rand(1..3).
std::vector<std::unique_ptr<PreferenceOrder>>
makePortfolioOrders(const prog::ConcurrentProgram &P,
                    uint64_t RandSeedBase = 0);

} // namespace red
} // namespace seqver

#endif // SEQVER_REDUCTION_PREFERENCEORDER_H
