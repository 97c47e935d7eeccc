//===- core/Portfolio.h - Preference-order portfolio (Sec. 8) -------------===//
///
/// \file
/// The evaluation's portfolio: GemCutter runs one verifier per preference
/// order (seq, lockstep, rand(1..3)) and "terminates as soon as the
/// analysis for any preference order terminates". The portfolio driver is
/// runtime::runPortfolioParallel (runtime/ParallelPortfolio.h), whose
/// Jobs=1 is the sequential portfolio; this header keeps the per-order
/// entry point.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_CORE_PORTFOLIO_H
#define SEQVER_CORE_PORTFOLIO_H

#include "core/Verifier.h"
#include "reduction/PreferenceOrder.h"

#include <string>

namespace seqver {
namespace core {

/// Result of one order within the portfolio.
struct PortfolioEntry {
  std::string OrderName;
  VerificationResult Result;
};

/// Runs a single order by name ("seq", "lockstep", "rand(1)", ...); returns
/// the verification result. Order name "baseline" runs without reduction.
/// Throws std::invalid_argument for a name that makePortfolioOrders does not
/// build under Base's RandSeedBase.
VerificationResult runSingleOrder(const prog::ConcurrentProgram &P,
                                  const VerifierConfig &Base,
                                  const std::string &OrderName);

} // namespace core
} // namespace seqver

#endif // SEQVER_CORE_PORTFOLIO_H
