//===- support/Statistics.h - Named counters for the verifier -------------===//
///
/// \file
/// A lightweight bag of named counters and gauges. The empirical evaluation
/// (Sec. 8) reports refinement rounds, proof sizes, states constructed, and
/// memory; collecting them through one object keeps the bench harnesses
/// uniform.
///
/// Counters register lazily: the first add()/setMax() of a name creates it.
/// Components that want to report counters take a `Statistics *` sink and
/// bump it at the event site (see CommutativityChecker::setStatistics)
/// instead of having the verifier enumerate every component's counters
/// centrally — adding a pass or tier never requires touching a registry.
/// Readers use get(), which returns 0 for never-bumped names, so absent
/// and zero counters are indistinguishable by design.
///
/// A name written by setMax() is a gauge (peak_visited, ...): mergeFrom()
/// takes the larger value for it instead of the sum, so a merge of several
/// runs' sinks reports the largest peak, not the sum of the peaks.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_SUPPORT_STATISTICS_H
#define SEQVER_SUPPORT_STATISTICS_H

#include <cstdint>
#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace seqver {

/// Ordered map of counter name to value; ordered so that dumps are stable.
class Statistics {
public:
  void add(const std::string &Name, int64_t Delta = 1) {
    Counters[Name] += Delta;
  }
  void setMax(const std::string &Name, int64_t Value) {
    Gauges.insert(Name);
    int64_t &Slot = Counters[Name];
    if (Value > Slot)
      Slot = Value;
  }
  int64_t get(const std::string &Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }
  const std::map<std::string, int64_t> &all() const { return Counters; }

  void mergeFrom(const Statistics &Other) {
    Gauges.insert(Other.Gauges.begin(), Other.Gauges.end());
    for (const auto &[Name, Value] : Other.Counters) {
      int64_t &Slot = Counters[Name];
      Slot = Gauges.count(Name) ? std::max(Slot, Value) : Slot + Value;
    }
  }

  std::string str() const;

private:
  std::map<std::string, int64_t> Counters;
  std::set<std::string> Gauges; ///< Names written by setMax().
};

} // namespace seqver

#endif // SEQVER_SUPPORT_STATISTICS_H
