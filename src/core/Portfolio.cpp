//===- core/Portfolio.cpp - Preference-order portfolio --------------------===//

#include "core/Portfolio.h"

#include "support/Timer.h"

#include <stdexcept>

using namespace seqver;
using namespace seqver::core;

VerificationResult
seqver::core::runSingleOrder(const prog::ConcurrentProgram &P,
                             const VerifierConfig &Base,
                             const std::string &OrderName) {
  if (OrderName == "baseline") {
    VerifierConfig Config = Base;
    Config.UseSleepSets = false;
    Config.UsePersistentSets = false;
    Config.ProofSensitive = false;
    Config.Order = nullptr;
    Verifier V(P, Config);
    return V.run();
  }
  auto Orders =
      red::makePortfolioOrders(P, Base.RandOrders, Base.RandSeedBase);
  for (auto &Order : Orders) {
    if (Order->name() != OrderName)
      continue;
    VerifierConfig Config = Base;
    Config.Order = Order.get();
    Verifier V(P, Config);
    return V.run();
  }
  throw std::invalid_argument("unknown preference order '" + OrderName +
                              "'");
}

AdaptiveResult
seqver::core::runAdaptivePortfolio(const prog::ConcurrentProgram &P,
                                   const VerifierConfig &Base,
                                   double InitialBudgetSeconds) {
  AdaptiveResult Out;
  auto Orders =
      red::makePortfolioOrders(P, Base.RandOrders, Base.RandSeedBase);
  Timer Total;
  double Budget = InitialBudgetSeconds;

  for (int Doubling = 0;; ++Doubling) {
    for (auto &Order : Orders) {
      if (Base.TimeoutSeconds > 0 &&
          Total.seconds() >= Base.TimeoutSeconds) {
        Out.Result.V = Verdict::Timeout;
        Out.Result.Seconds = Total.seconds();
        Out.BudgetDoublings = Doubling;
        return Out;
      }
      VerifierConfig Config = Base;
      Config.Order = Order.get();
      Config.TimeoutSeconds = Budget;
      if (Base.TimeoutSeconds > 0)
        Config.TimeoutSeconds =
            std::min(Budget, Base.TimeoutSeconds - Total.seconds());
      Verifier V(P, Config);
      VerificationResult R = V.run();
      if (isDecisive(R.V)) {
        Out.Result = std::move(R);
        Out.Result.Seconds = Total.seconds();
        Out.DecidingOrder = Order->name();
        Out.BudgetDoublings = Doubling;
        return Out;
      }
      if (R.V == Verdict::Cancelled) {
        // The scheduler itself was cancelled from outside: stop retrying.
        Out.Result = std::move(R);
        Out.Result.Seconds = Total.seconds();
        Out.BudgetDoublings = Doubling;
        return Out;
      }
      if (R.V == Verdict::Unknown) {
        // A solver give-up will not improve with more time on this order;
        // remember it but keep trying the others.
        Out.Result = std::move(R);
        Out.DecidingOrder.clear();
      }
    }
    Budget *= 2;
  }
}
