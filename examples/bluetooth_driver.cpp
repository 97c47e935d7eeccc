//===- examples/bluetooth_driver.cpp - The Sec. 2 walkthrough -------------===//
///
/// The paper's motivating example: the (corrected) bluetooth device driver
/// with n user threads and one stop thread. This example runs every
/// preference order of the portfolio to completion on the correct driver,
/// demonstrates the constant-rounds behaviour that conditional
/// commutativity buys (Sec. 2), and then reintroduces the classic KISS race
/// to show bug finding.
///
/// Usage:  ./build/examples/bluetooth_driver [num_users]
///
//===----------------------------------------------------------------------===//

#include "core/Portfolio.h"
#include "program/CfgBuilder.h"
#include "program/Interpreter.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>

using namespace seqver;

int main(int argc, char **argv) {
  int Users = argc > 1 ? std::atoi(argv[1]) : 3;
  if (Users < 1 || Users > 12) {
    std::printf("num_users must be in 1..12\n");
    return 1;
  }

  std::printf("=== Bluetooth driver, %d user thread(s) + stop ===\n\n",
              Users);
  {
    smt::TermManager TM;
    prog::BuildResult B =
        prog::buildFromSource(workloads::bluetoothSource(Users), TM);
    if (!B.ok()) {
      std::printf("frontend error: %s\n", B.Error.c_str());
      return 1;
    }
    core::VerifierConfig Config;
    Config.TimeoutSeconds = 60;
    // Every order runs to completion: a portfolio race would cancel the
    // losers, and the narrative needs each order's full round count.
    std::printf("%-10s %-10s %-7s %-7s %-9s\n", "order", "verdict",
                "rounds", "proof", "time(s)");
    for (const auto &Order : red::makePortfolioOrders(*B.Program)) {
      core::VerificationResult R =
          core::runSingleOrder(*B.Program, Config, Order->name());
      std::printf("%-10s %-10s %-7d %-7zu %-9.3f\n", Order->name().c_str(),
                  core::verdictName(R.V).c_str(), R.Rounds, R.ProofSize,
                  R.Seconds);
    }
    std::printf("\nSec. 2: with the reduction, the number of refinement "
                "rounds stays constant (3 for seq)\nacross driver sizes, "
                "and the proof no longer counts user threads.\n\n");
  }

  std::printf("=== Same driver with the original KISS race "
              "(non-atomic Enter) ===\n\n");
  {
    smt::TermManager TM;
    prog::BuildResult B = prog::buildFromSource(
        workloads::bluetoothSource(Users, /*WithBug=*/true), TM);
    if (!B.ok()) {
      std::printf("frontend error: %s\n", B.Error.c_str());
      return 1;
    }
    core::VerifierConfig Config;
    Config.TimeoutSeconds = 60;
    core::VerificationResult R =
        core::runSingleOrder(*B.Program, Config, "seq");
    std::printf("verdict: %s after %d rounds (%.3fs)\n",
                core::verdictName(R.V).c_str(), R.Rounds, R.Seconds);
    if (R.V == core::Verdict::Incorrect) {
      std::printf("interleaving that kills the driver:\n");
      for (automata::Letter L : R.Witness)
        std::printf("  %s\n", B.Program->action(L).Name.c_str());
      bool Replays = prog::replayTrace(*B.Program, R.Witness).has_value();
      std::printf("witness replays concretely: %s\n",
                  Replays ? "yes" : "NO (bug in the verifier!)");
    }
  }
  return 0;
}
