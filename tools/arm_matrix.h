//===- tools/arm_matrix.h - Differential arm matrix -------------*- C++ -*-===//
///
/// \file
/// One differential gate for every verdict-neutral layer of the verifier.
/// Each layer is an axis: suites x named config arms, one agreement rule,
/// and optional relations between counters summed over the arms.
/// docs/CHECKS.md lists the axes, their arms and their rules.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_TOOLS_ARM_MATRIX_H
#define SEQVER_TOOLS_ARM_MATRIX_H

#include <cstdint>
#include <string>
#include <vector>

namespace seqver {
namespace check {

/// What `seqver --check=<axis>[,quick]` passes to an axis.
struct CheckOptions {
  bool Quick = false;         ///< every third workload of sampled suites
  double TimeoutSeconds = 10; ///< per verification run
  unsigned Jobs = 0;          ///< race workers; 0 = hardware concurrency
  uint64_t RandSeedBase = 0;
  /// Runs only the named suites / arms of the axis; empty keeps them all.
  /// A relation or report counter that reads a dropped arm is dropped too,
  /// and so is a relation over the total of a dropped suite.
  std::vector<std::string> Suites, Arms;
};

/// True iff Name is an axis: tiers, parallel, cache, fusion, commut,
/// sharing or incremental.
bool isAxis(const std::string &Name);

/// Runs one axis and prints its report. Returns the process exit code: 0
/// when every rule holds, 1 when one fails, 2 when a workload cannot be
/// set up or a filter names no suite or arm of the axis.
int runAxis(const std::string &Name, const CheckOptions &Opts);

} // namespace check
} // namespace seqver

#endif // SEQVER_TOOLS_ARM_MATRIX_H
