//===- core/Portfolio.h - Preference-order portfolio (Sec. 8) -------------===//
///
/// \file
/// The evaluation's portfolio: GemCutter runs one verifier per preference
/// order (seq, lockstep, rand(1..3)) and "terminates as soon as the
/// analysis for any preference order terminates". The portfolio driver is
/// runtime::runPortfolioParallel (runtime/ParallelPortfolio.h), whose
/// Jobs=1 is the sequential portfolio; this header keeps the per-order
/// entry point and the adaptive scheduler.
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
/// build under Base's RandOrders and RandSeedBase.
VerificationResult runSingleOrder(const prog::ConcurrentProgram &P,
                                  const VerifierConfig &Base,
                                  const std::string &OrderName);

/// Extension beyond the paper (its Limitations section asks for dynamic
/// adjustment of the preference order based on partial verification
/// efforts): an iterative-deepening scheduler over the portfolio orders.
/// Every order gets a small time budget; undecided orders are retried with
/// doubled budgets until one is decisive or TotalTimeout expires. On a
/// single core this bounds the total work at a small multiple of the best
/// order's time, without knowing the best order in advance.
///
/// The reported Seconds is the *cumulative* scheduler time (unlike the
/// race, which reports the winner's own run time).
struct AdaptiveResult {
  VerificationResult Result;
  std::string DecidingOrder;
  int BudgetDoublings = 0;
};
AdaptiveResult runAdaptivePortfolio(const prog::ConcurrentProgram &P,
                                    const VerifierConfig &Base,
                                    double InitialBudgetSeconds = 0.25);

} // namespace core
} // namespace seqver

#endif // SEQVER_CORE_PORTFOLIO_H
