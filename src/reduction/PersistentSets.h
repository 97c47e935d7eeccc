//===- reduction/PersistentSets.h - Algorithm 1 (Sec. 7.1) ----------------===//
///
/// \file
/// Computes compatible weakly persistent membranes for product states of a
/// concurrent program (Algorithm 1): a preprocessing step computes the
/// location-level conflict relation; per state, a conflict graph over the
/// active threads (with extra edges enforcing compatibility with the
/// preference order, Sec. 6.2) is condensed into SCCs and a topologically
/// maximal SCC is selected. The enabled actions of the selected threads form
/// a weakly persistent set.
///
/// Membrane condition (Sec. 6.1, footnote 4): threads containing assert
/// statements are forced into the selection whenever they are active, which
/// makes the resulting set a membrane for error-acceptance as well.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_REDUCTION_PERSISTENTSETS_H
#define SEQVER_REDUCTION_PERSISTENTSETS_H

#include "program/Program.h"
#include "reduction/Commutativity.h"
#include "reduction/PreferenceOrder.h"
#include "support/Bitset.h"
#include "support/InternTable.h"

#include <vector>

namespace seqver {
namespace red {

/// Per-program computer with caching by (product-state id, order context).
class PersistentSetComputer {
public:
  /// Order may be null: then no compatibility edges are added (pure
  /// conflict-closure), which is what the persistent-set-only verifier
  /// variant of Table 2 uses. The conflict precomputation asks Commut for
  /// unconditional commutativity, so Commut must not have invariant sources
  /// installed yet: a membrane applies at every state, and its conflict
  /// relation must not depend on where the letters sit.
  PersistentSetComputer(const prog::ConcurrentProgram &P,
                        CommutativityChecker &Commut,
                        const PreferenceOrder *Order);

  /// The weakly persistent membrane for state S under order context Ctx, as
  /// a bitset over letters. StateId is the caller's interned id of S: the
  /// cache is keyed by it (plus Ctx, for positional orders only), so every
  /// call must map one state to one id. The reference stays valid until
  /// the next compute() call.
  const Bitset &compute(uint32_t StateId, const prog::ProductState &S,
                        PreferenceOrder::Context Ctx);

  /// Location-level conflict relation  l_i ~~> l_j  (Sec. 7.1): some action
  /// enabled at l_i does not commute with some action reachable from l_j in
  /// thread j. Exposed for tests.
  bool locationsConflict(int ThreadI, prog::Location LocI, int ThreadJ,
                         prog::Location LocJ) const;

  uint64_t numCacheHits() const { return CacheHits; }

private:
  void precomputeConflicts();

  const prog::ConcurrentProgram &P;
  CommutativityChecker &Commut;
  const PreferenceOrder *Order;

  /// Conflict[i][li][j] = bitset over locations of thread j in conflict
  /// with (i, li). Indexed sparsely via vectors.
  std::vector<std::vector<std::vector<Bitset>>> Conflicts;
  /// Threads containing assert statements (error locations).
  std::vector<bool> HasAssert;

  /// (state id, order context) -> membrane: the key interns to a dense id
  /// that indexes Membranes. Non-positional orders key every state under
  /// the initial context, since their membranes ignore it.
  struct CacheKey {
    uint32_t StateId;
    PreferenceOrder::Context Ctx;
    bool operator==(const CacheKey &) const = default;
    uint64_t hash() const { return hashCombine(hashMix(StateId), Ctx); }
  };
  InternTable<CacheKey> CacheIndex;
  std::vector<Bitset> Membranes;
  uint64_t CacheHits = 0;

  /// Scratch of a cache miss, indexed by thread and cleared at each call,
  /// so a miss allocates only the membrane it stores: the conflict graph
  /// and its reverse, Kosaraju's explicit DFS stack of (thread, next-edge
  /// index), finish order and component ids, and the worklist shared by
  /// the component sweep and the selection closure.
  std::vector<std::vector<int>> Adj;
  std::vector<std::vector<int>> RevAdj;
  std::vector<std::pair<int, size_t>> DfsStack;
  std::vector<int> FinishOrder;
  std::vector<int> ComponentOf;
  std::vector<int> Worklist;
  std::vector<bool> Visited;
  std::vector<bool> HasOutgoing;
  std::vector<bool> Selected;
};

} // namespace red
} // namespace seqver

#endif // SEQVER_REDUCTION_PERSISTENTSETS_H
