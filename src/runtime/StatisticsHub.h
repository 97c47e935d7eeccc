//===- runtime/StatisticsHub.h - Per-worker statistics sinks --------------===//
///
/// \file
/// Thread-safe aggregation for support/Statistics. The Statistics bag
/// itself registers counters lazily (first add() of a name creates the
/// map entry), which is deliberately single-threaded; sharing one sink
/// across racing verifiers would race on that registration. The hub gives
/// each worker its own sink — registered on the scheduler thread BEFORE
/// any worker starts — and merges them after the workers joined.
///
/// Registration is sealed by start(): a sink requested afterwards would be
/// handed to a worker that may already be running concurrently with it,
/// so registerSink() then throws std::logic_error (tested in
/// tests/runtime_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_RUNTIME_STATISTICSHUB_H
#define SEQVER_RUNTIME_STATISTICSHUB_H

#include "support/Statistics.h"

#include <deque>
#include <mutex>
#include <stdexcept>

namespace seqver {
namespace runtime {

/// Owns one Statistics sink per worker; merge-on-join aggregation.
class StatisticsHub {
public:
  /// Returns a fresh sink for one worker; the reference stays valid for
  /// the hub's lifetime (deque: no reallocation of existing elements).
  /// Throws std::logic_error once start() sealed registration.
  Statistics &registerSink() {
    std::lock_guard<std::mutex> Lock(M);
    if (Started)
      throw std::logic_error(
          "StatisticsHub: sink registration after workers started");
    return Sinks.emplace_back();
  }

  /// Seals registration; call after all sinks are handed out, before the
  /// workers that write them are launched.
  void start() {
    std::lock_guard<std::mutex> Lock(M);
    Started = true;
  }
  bool started() const {
    std::lock_guard<std::mutex> Lock(M);
    return Started;
  }

  size_t numSinks() const {
    std::lock_guard<std::mutex> Lock(M);
    return Sinks.size();
  }

  /// All sinks merged: counters summed, gauges (setMax names) maxed. Only
  /// meaningful once the writing workers joined; each sink is
  /// single-writer, so after the join this is a plain read.
  Statistics merged() const {
    std::lock_guard<std::mutex> Lock(M);
    Statistics Out;
    for (const Statistics &S : Sinks)
      Out.mergeFrom(S);
    return Out;
  }

private:
  mutable std::mutex M;
  std::deque<Statistics> Sinks;
  bool Started = false;
};

} // namespace runtime
} // namespace seqver

#endif // SEQVER_RUNTIME_STATISTICSHUB_H
