//===- core/Portfolio.cpp - Preference-order portfolio --------------------===//

#include "core/Portfolio.h"

#include <stdexcept>

using namespace seqver;
using namespace seqver::core;

VerificationResult
seqver::core::runSingleOrder(const prog::ConcurrentProgram &P,
                             const VerifierConfig &Base,
                             const std::string &OrderName) {
  if (OrderName == "baseline") {
    Verifier V(P, VerifierConfig::baseline(Base));
    return V.run();
  }
  auto Orders = red::makePortfolioOrders(P, Base.RandSeedBase);
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
