//===- workloads/Workloads.h - Benchmark program generators ---------------===//
///
/// \file
/// Parametric generators for the evaluation workloads (Sec. 8). The paper
/// evaluates on SV-COMP'21 ConcurrencySafety and the Weaver suite; those
/// corpora are not redistributable here, so DESIGN.md documents the
/// substitution: two synthetic suites exercising the same phenomena --
/// racy flag/counter protocols with correct and seeded-bug variants
/// (SV-COMP-like), and counting-proof workloads whose unreduced proofs grow
/// with the thread count (Weaver-like), including the bluetooth driver of
/// Sec. 2.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_WORKLOADS_WORKLOADS_H
#define SEQVER_WORKLOADS_WORKLOADS_H

#include <string>
#include <vector>

namespace seqver {
namespace workloads {

/// One benchmark instance: a program in the mini-language plus ground truth.
struct WorkloadInstance {
  std::string Name;
  std::string Source;
  bool ExpectedCorrect = true;
  /// Family tag ("bluetooth", "counter_race", ...).
  std::string Family;
};

/// The bluetooth driver of Sec. 2 with NumUsers user threads and one stop
/// thread; exactly one user thread asserts (the program is symmetric).
/// WithBug makes the Enter section non-atomic, reintroducing the classic
/// KISS race.
std::string bluetoothSource(int NumUsers, bool WithBug = false);

/// SV-COMP-like suite: mixed correct/incorrect protocol workloads.
std::vector<WorkloadInstance> svcompLikeSuite();

/// Weaver-like suite: correct programs whose unreduced proofs count threads.
std::vector<WorkloadInstance> weaverLikeSuite();

/// Bounded counting loop: a worker increments `total` alongside its loop
/// counter up to N while a checker asserts `total <= N` (the bug variant
/// claims N-1). The needed invariant `total == i /\ i <= N` is relational,
/// beyond interval propagation — the octagon analysis's home turf.
std::string loopSumSource(int N, bool WithBug = false);

/// One thread advances two counters in lockstep inside a nondeterministic
/// loop; a checker asserts `a - b <= 1` (bug variant: `<= 0`, violated
/// between the two increments). The proof is a pure octagon fact.
std::string chaseSource(bool WithBug = false);

/// Nested bounded loops; the checker asserts the inner counter's bound.
/// Exercises widening/narrowing convergence on nested cycles.
std::string nestedLoopSource(int M, bool WithBug = false);

/// Loop-heavy suite: programs whose proofs hinge on relational loop
/// invariants. The octagon tier and proof seeding are expected to cut SMT
/// commutativity queries and refinement rounds here; interval-only
/// configurations still verify them, just more slowly.
std::vector<WorkloadInstance> loopHeavySuite();

/// Bounded accumulator with a non-unit stride: the worker adds 2 to
/// `total` per loop step up to N while a checker asserts `total <= 2N`
/// (the bug variant claims 2N-1). The needed invariant `total == 2*i` has
/// a non-unit coefficient — outside the octagon domain (+-x +-y <= c) but
/// exactly a Karr affine equality.
std::string affineSumSource(int N, bool WithBug = false);

/// Stride-2 pairing: `j` advances two steps for every step of `i`; the
/// checker asserts `j <= 2N` (bug variant: 2N-1). The proof hinges on
/// `j == 2*i`, again affine with a non-unit coefficient.
std::string stridePairSource(int N, bool WithBug = false);

/// Affine suite: counting proofs whose loop invariants carry non-unit
/// coefficients (`total == 2*i`). The Karr tier and Karr proof seeding are
/// expected to cut refinement rounds or SMT commutativity queries here;
/// octagon- and interval-only configurations still verify them, just more
/// slowly.
std::vector<WorkloadInstance> affineSuite();

/// The tier-1 workloads: svcompLikeSuite, weaverLikeSuite, loopHeavySuite
/// and affineSuite concatenated in that order.
std::vector<WorkloadInstance> tier1Suite();

} // namespace workloads
} // namespace seqver

#endif // SEQVER_WORKLOADS_WORKLOADS_H
