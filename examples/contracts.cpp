//===- examples/contracts.cpp - Pre/postcondition verification ------------===//
///
/// The paper's formal setting (Sec. 3) specifies correctness as a
/// pre/postcondition pair over the program's complete executions. This
/// example verifies a work-stealing-style accumulator against a contract,
/// shows how `requires` narrows the initial states, and how a violated
/// `ensures` produces a complete (all-exit) counterexample run.
///
/// Usage:  ./build/examples/contracts
///
//===----------------------------------------------------------------------===//

#include "program/CfgBuilder.h"
#include "runtime/ParallelPortfolio.h"

#include <cstdio>

using namespace seqver;

namespace {

/// Two workers move all work items into done items; the contract states
/// that nothing is lost: at exit, done == initial work and work == 0.
const char *AccumulatorSource = R"(
  var int work;
  var int done := 0;

  requires work >= 0 && work <= 3;
  ensures work == 0;
  ensures done >= 0;

  thread worker1 {
    while (*) {
      atomic { assume work > 0; work := work - 1; done := done + 1; }
    }
    assume work == 0;
  }

  thread worker2 {
    while (*) {
      atomic { assume work > 0; work := work - 1; done := done + 1; }
    }
    assume work == 0;
  }
)";

/// Broken variant: worker2 drops items instead of completing them, so
/// "done >= 0" still holds but a stronger audit fails.
const char *LeakyAccumulatorSource = R"(
  var int work;
  var int done := 0;

  requires work == 2;
  ensures done == 2;

  thread worker1 {
    while (*) {
      atomic { assume work > 0; work := work - 1; done := done + 1; }
    }
    assume work == 0;
  }

  thread worker2 {
    while (*) {
      atomic { assume work > 0; work := work - 1; }
    }
    assume work == 0;
  }
)";

void runContract(const char *Title, const char *Source) {
  std::printf("--- %s ---\n", Title);
  smt::TermManager TM;
  prog::BuildResult B = prog::buildFromSource(Source, TM);
  if (!B.ok()) {
    std::printf("frontend error: %s\n", B.Error.c_str());
    return;
  }
  std::printf("pre:  %s\npost: %s\n",
              TM.str(B.Program->preCondition()).c_str(),
              TM.str(B.Program->postCondition()).c_str());
  core::VerifierConfig Config;
  Config.TimeoutSeconds = 60;
  runtime::ParallelPortfolioResult R =
      runtime::runPortfolioParallel(Source, Config);
  std::printf("verdict: %s (winner %s, %d rounds, %zu assertions, %.3fs)\n",
              core::verdictName(R.Best.V).c_str(), R.BestOrder.c_str(),
              R.Best.Rounds, R.Best.ProofSize, R.Best.Seconds);
  if (R.Best.V == core::Verdict::Incorrect) {
    std::printf("complete run violating the contract:\n");
    for (automata::Letter L : R.Best.Witness)
      std::printf("  %s\n", B.Program->action(L).Name.c_str());
  }
  std::printf("\n");
}

} // namespace

int main() {
  runContract("accumulator with contract", AccumulatorSource);
  runContract("leaky accumulator (ensures fails)", LeakyAccumulatorSource);
  return 0;
}
