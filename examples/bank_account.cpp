//===- examples/bank_account.cpp - Atomicity bug hunting ------------------===//
///
/// A domain-flavoured example: two tellers transfer money between accounts
/// while an auditor asserts that the total balance is conserved. The atomic
/// version verifies; the torn (non-atomic) version produces a concrete
/// interleaving where the auditor observes money mid-flight. The example
/// also demonstrates stepping the interpreter through the witness.
///
/// Usage:  ./build/examples/bank_account
///
//===----------------------------------------------------------------------===//

#include "program/CfgBuilder.h"
#include "program/Interpreter.h"
#include "runtime/ParallelPortfolio.h"

#include <cstdio>

using namespace seqver;

namespace {

std::string bankSource(bool Torn) {
  std::string Transfer2 =
      Torn ? "    b := b - 1;\n    a := a + 1;\n"
           : "    atomic { b := b - 1; a := a + 1; }\n";
  return "var int a := 100;\n"
         "var int b := 100;\n"
         "thread teller1 {\n"
         "  while (*) {\n"
         "    atomic { a := a - 1; b := b + 1; }\n"
         "  }\n"
         "}\n"
         "thread teller2 {\n"
         "  while (*) {\n" +
         Transfer2 +
         "  }\n"
         "}\n"
         "thread auditor { assert a + b == 200; }\n";
}

void audit(bool Torn) {
  std::printf("=== %s transfers ===\n", Torn ? "torn" : "atomic");
  smt::TermManager TM;
  std::string Source = bankSource(Torn);
  prog::BuildResult B = prog::buildFromSource(Source, TM);
  if (!B.ok()) {
    std::printf("frontend error: %s\n", B.Error.c_str());
    return;
  }
  const prog::ConcurrentProgram &P = *B.Program;

  core::VerifierConfig Config;
  Config.TimeoutSeconds = 30;
  runtime::ParallelPortfolioResult R =
      runtime::runPortfolioParallel(Source, Config);
  std::printf("verdict: %s (winner %s, %d rounds, %.3fs)\n",
              core::verdictName(R.Best.V).c_str(), R.BestOrder.c_str(),
              R.Best.Rounds, R.Best.Seconds);

  if (R.Best.V == core::Verdict::Incorrect) {
    std::printf("replaying the witness, balances after each action:\n");
    smt::Assignment Store = P.initialValues();
    smt::Term A = TM.lookupVar("a");
    smt::Term BVar = TM.lookupVar("b");
    for (automata::Letter L : R.Best.Witness) {
      prog::executeAction(P, P.action(L), Store);
      std::printf("  %-28s a=%-4lld b=%-4lld total=%lld\n",
                  P.action(L).Name.c_str(),
                  static_cast<long long>(Store.intValue(A)),
                  static_cast<long long>(Store.intValue(BVar)),
                  static_cast<long long>(Store.intValue(A) +
                                         Store.intValue(BVar)));
    }
    std::printf("the auditor caught the money mid-flight.\n");
  }
  std::printf("\n");
}

} // namespace

int main() {
  audit(/*Torn=*/false);
  audit(/*Torn=*/true);
  return 0;
}
