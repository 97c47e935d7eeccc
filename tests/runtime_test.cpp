//===- tests/runtime_test.cpp - Parallel portfolio runtime tests ----------===//
///
/// Exercises the runtime subsystem: the worker pool (task ordering,
/// exception propagation, shutdown with queued tasks), cooperative
/// cancellation (a deliberately slow configuration stops once a fast one
/// wins, within the poll-latency contract of docs/RUNTIME.md), the
/// thread-safe statistics hub (registration sealing, merge-on-join), and
/// the racing portfolio's determinism across job counts. This is also the
/// binary the TSan-configured build runs (ctest target runtime.tsan).
///
//===----------------------------------------------------------------------===//

#include "runtime/Cancellation.h"
#include "runtime/Executor.h"
#include "runtime/ParallelPortfolio.h"
#include "runtime/StatisticsHub.h"

#include "core/Portfolio.h"
#include "program/CfgBuilder.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

using namespace seqver;
using namespace seqver::runtime;

namespace {

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

TEST(ExecutorTest, SingleWorkerPreservesFifoOrder) {
  Executor Pool(1);
  std::vector<int> Seen;
  std::vector<std::future<void>> Futures;
  for (int I = 0; I < 16; ++I)
    Futures.push_back(Pool.submit([I, &Seen] { Seen.push_back(I); }));
  for (auto &F : Futures)
    F.get();
  ASSERT_EQ(Seen.size(), 16u);
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(Seen[static_cast<size_t>(I)], I);
}

TEST(ExecutorTest, ReturnsValuesThroughFutures) {
  Executor Pool(2);
  auto F1 = Pool.submit([] { return 6 * 7; });
  auto F2 = Pool.submit([] { return std::string("portfolio"); });
  EXPECT_EQ(F1.get(), 42);
  EXPECT_EQ(F2.get(), "portfolio");
}

TEST(ExecutorTest, ExceptionsPropagateToFutureNotWorker) {
  Executor Pool(1);
  auto Bad = Pool.submit([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW(Bad.get(), std::runtime_error);
  // The worker survived the throwing task and still serves new work.
  auto Good = Pool.submit([] { return 1; });
  EXPECT_EQ(Good.get(), 1);
}

TEST(ExecutorTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> Ran{0};
  std::vector<std::future<void>> Futures;
  {
    Executor Pool(1);
    // One slow task at the head so the rest are still queued when
    // shutdown starts; all of them must run anyway.
    for (int I = 0; I < 8; ++I)
      Futures.push_back(Pool.submit([&Ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ++Ran;
      }));
    Pool.shutdown();
  }
  EXPECT_EQ(Ran.load(), 8);
  EXPECT_NO_THROW(for (auto &F : Futures) F.get());
}

TEST(ExecutorTest, SubmitAfterShutdownThrows) {
  Executor Pool(1);
  Pool.shutdown();
  EXPECT_THROW(Pool.submit([] {}), std::logic_error);
}

TEST(ExecutorTest, ZeroThreadsMeansHardwareConcurrency) {
  Executor Pool(0);
  EXPECT_GE(Pool.numThreads(), 1u);
  auto F = Pool.submit([] { return 7; });
  EXPECT_EQ(F.get(), 7);
}

//===----------------------------------------------------------------------===//
// CancellationToken
//===----------------------------------------------------------------------===//

TEST(CancellationTest, CancelFlagIsStickyAndVisible) {
  CancellationToken T;
  EXPECT_FALSE(T.stopRequested());
  T.requestCancel();
  EXPECT_TRUE(T.cancelRequested());
  EXPECT_TRUE(T.stopRequested());
  T.requestCancel(); // idempotent
  EXPECT_TRUE(T.cancelRequested());
}

TEST(CancellationTest, DeadlineExpires) {
  CancellationToken T(0.02);
  EXPECT_TRUE(T.hasDeadline());
  EXPECT_FALSE(T.deadlineExpired());
  EXPECT_GT(T.remainingSeconds(), 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(T.deadlineExpired());
  EXPECT_TRUE(T.stopRequested());
  EXPECT_FALSE(T.cancelRequested()); // deadline, not external cancel
}

TEST(CancellationTest, NonPositiveBudgetMeansNoDeadline) {
  CancellationToken T(0);
  EXPECT_FALSE(T.hasDeadline());
  EXPECT_FALSE(T.stopRequested());
}

//===----------------------------------------------------------------------===//
// StatisticsHub
//===----------------------------------------------------------------------===//

TEST(StatisticsHubTest, MergesPerWorkerSinks) {
  StatisticsHub Hub;
  Statistics &A = Hub.registerSink();
  Statistics &B = Hub.registerSink();
  Hub.start();
  A.add("rounds", 3);
  B.add("rounds", 4);
  B.add("only_b", 1);
  Statistics Merged = Hub.merged();
  EXPECT_EQ(Merged.get("rounds"), 7);
  EXPECT_EQ(Merged.get("only_b"), 1);
  EXPECT_EQ(Hub.numSinks(), 2u);
}

TEST(StatisticsHubTest, RegistrationAfterStartIsRejected) {
  StatisticsHub Hub;
  Hub.registerSink();
  Hub.start();
  EXPECT_TRUE(Hub.started());
  EXPECT_THROW(Hub.registerSink(), std::logic_error);
}

TEST(StatisticsHubTest, ConcurrentWritersDoNotRace) {
  // Each worker writes only its own sink while others write theirs; the
  // merge happens after the join. Run under TSan via runtime.tsan.
  StatisticsHub Hub;
  std::vector<Statistics *> Sinks;
  for (int I = 0; I < 4; ++I)
    Sinks.push_back(&Hub.registerSink());
  Hub.start();
  {
    Executor Pool(4);
    for (int I = 0; I < 4; ++I)
      Pool.submit([S = Sinks[static_cast<size_t>(I)]] {
        for (int K = 0; K < 1000; ++K)
          S->add("bumps");
      });
  }
  EXPECT_EQ(Hub.merged().get("bumps"), 4000);
}

//===----------------------------------------------------------------------===//
// Verifier cancellation
//===----------------------------------------------------------------------===//

/// A deliberately hard run (baseline on a large bluetooth instance needs
/// tens of seconds; see EXPERIMENTS.md) cancelled from outside must stop
/// promptly with Verdict::Cancelled.
TEST(CancellationTest, VerifierStopsOnExternalCancel) {
  smt::TermManager TM;
  prog::BuildResult B =
      prog::buildFromSource(workloads::bluetoothSource(6), TM);
  ASSERT_TRUE(B.ok()) << B.Error;

  CancellationToken Race;
  core::VerifierConfig Config = core::VerifierConfig::baseline();
  Config.TimeoutSeconds = 300; // the cancel, not the deadline, must stop it
  Config.Cancel = &Race;

  core::VerificationResult Result;
  std::thread Worker([&] {
    core::Verifier V(*B.Program, Config);
    Result = V.run();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto CancelledAt = std::chrono::steady_clock::now();
  Race.requestCancel();
  Worker.join();
  double LatencySeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    CancelledAt)
          .count();

  EXPECT_EQ(Result.V, core::Verdict::Cancelled);
  // Contract: within one poll interval — generously bounded here (the
  // worst case is one semantic SMT query plus 1024 DFS steps).
  EXPECT_LT(LatencySeconds, 5.0);
}

TEST(CancellationTest, UncancelledVerifierIsUnaffectedByToken) {
  smt::TermManager TM;
  prog::BuildResult B =
      prog::buildFromSource(workloads::bluetoothSource(2), TM);
  ASSERT_TRUE(B.ok()) << B.Error;
  CancellationToken Race;
  core::VerifierConfig Config;
  Config.Cancel = &Race;
  core::VerificationResult R = core::runSingleOrder(*B.Program, Config, "seq");
  EXPECT_EQ(R.V, core::Verdict::Correct);
}

//===----------------------------------------------------------------------===//
// Parallel portfolio
//===----------------------------------------------------------------------===//

TEST(ParallelPortfolioTest, SlowOrdersAreCancelledOnceAWinnerFinishes) {
  // bluetooth_4: seq decides quickly, lockstep's positional unrolling is
  // far slower (EXPERIMENTS.md Fig. 1) — the race must not wait for it.
  core::VerifierConfig Base;
  Base.TimeoutSeconds = 120;
  ParallelConfig PC;
  PC.Jobs = 2;
  ParallelPortfolioResult R =
      runPortfolioParallel(workloads::bluetoothSource(4), Base, PC);

  EXPECT_TRUE(R.decisive());
  EXPECT_EQ(R.Best.V, core::Verdict::Correct);
  EXPECT_EQ(R.Entries.size(), 5u);
  EXPECT_GE(R.Merged.get("portfolio_decisive_orders"), 1);
  // At least one loser was stopped by the race rather than finishing.
  EXPECT_GE(R.Merged.get("portfolio_cancelled_orders"), 1);
  // The race never costs the full sum over orders:
  // cancelled orders contribute only partial time. Sanity: wall-clock is
  // bounded by the race cost (loose; also holds on one core).
  EXPECT_GT(R.WallSeconds, 0.0);
}

TEST(ParallelPortfolioTest, VerdictIsDeterministicAcrossJobCounts) {
  std::vector<workloads::WorkloadInstance> Suite =
      workloads::svcompLikeSuite();
  // A representative slice (correct + incorrect families) keeps the
  // three-way sweep fast; the parallel axis of seqver --check
  // (docs/CHECKS.md) covers the full suites.
  Suite.resize(8);
  auto Weaver = workloads::weaverLikeSuite();
  Suite.push_back(Weaver[0]);
  Suite.push_back(Weaver[1]);

  core::VerifierConfig Base;
  Base.TimeoutSeconds = 60;
  for (const auto &W : Suite) {
    core::Verdict Expected = W.ExpectedCorrect ? core::Verdict::Correct
                                               : core::Verdict::Incorrect;
    core::Verdict Sequential = core::Verdict::Unknown;
    for (unsigned Jobs : {1u, 2u, 8u}) {
      ParallelConfig PC;
      PC.Jobs = Jobs;
      ParallelPortfolioResult Par =
          runPortfolioParallel(W.Source, Base, PC);
      if (Jobs == 1)
        Sequential = Par.Best.V;
      EXPECT_EQ(Par.Best.V, Expected) << W.Name << " with --jobs=" << Jobs;
      EXPECT_EQ(Par.Best.V, Sequential) << W.Name << " with --jobs=" << Jobs;
      EXPECT_EQ(Par.Jobs, std::min(Jobs, 5u));
    }
  }
}

/// In a one-job race the orders after the winner are still queued when it
/// finishes: they return Cancelled before building anything, so they carry
/// no time and no counters.
TEST(ParallelPortfolioTest, QueuedLosersOfAOneJobRaceNeverStart) {
  core::VerifierConfig Base;
  Base.TimeoutSeconds = 60;
  ParallelConfig PC;
  PC.Jobs = 1;
  ParallelPortfolioResult R =
      runPortfolioParallel(workloads::bluetoothSource(2), Base, PC);
  ASSERT_EQ(R.Entries.size(), 5u);
  EXPECT_EQ(R.BestOrder, "seq");
  EXPECT_EQ(R.Best.V, core::Verdict::Correct);
  for (size_t I = 1; I < R.Entries.size(); ++I) {
    const core::PortfolioEntry &E = R.Entries[I];
    EXPECT_EQ(E.Result.V, core::Verdict::Cancelled) << E.OrderName;
    EXPECT_EQ(E.Result.Seconds, 0.0) << E.OrderName;
    EXPECT_TRUE(E.Result.Stats.all().empty()) << E.OrderName;
  }
  EXPECT_EQ(R.Merged.get("portfolio_cancelled_orders"), 4);
}

/// peak_visited is a gauge (written by setMax): the hub merge of a race
/// reports the largest worker's peak, not the sum over the workers.
TEST(ParallelPortfolioTest, MergedPeakIsTheLargestWorkerPeak) {
  core::VerifierConfig Base;
  Base.TimeoutSeconds = 60;
  ParallelConfig PC;
  PC.Jobs = 4;
  ParallelPortfolioResult R =
      runPortfolioParallel(workloads::bluetoothSource(2), Base, PC);
  int64_t MaxPeak = 0;
  for (const core::PortfolioEntry &E : R.Entries)
    MaxPeak = std::max(MaxPeak, E.Result.Stats.get("peak_visited"));
  EXPECT_GT(MaxPeak, 0);
  EXPECT_EQ(R.Merged.get("peak_visited"), MaxPeak);
}

/// Every order of mutex_bug_2 run alone is incorrect, so a loser the race
/// stops early must report Cancelled (or Timeout), never Unknown.
TEST(ParallelPortfolioTest, StoppedLosersAreNeverUnknown) {
  std::string Source;
  for (const auto &W : workloads::svcompLikeSuite())
    if (W.Name == "mutex_bug_2")
      Source = W.Source;
  ASSERT_FALSE(Source.empty());
  core::VerifierConfig Base;
  ParallelConfig PC;
  PC.Jobs = 4;
  for (int Race = 0; Race < 20; ++Race) {
    ParallelPortfolioResult R = runPortfolioParallel(Source, Base, PC);
    EXPECT_EQ(R.Best.V, core::Verdict::Incorrect) << "race " << Race;
    for (const core::PortfolioEntry &E : R.Entries)
      EXPECT_NE(E.Result.V, core::Verdict::Unknown)
          << "race " << Race << ", order " << E.OrderName;
  }
}

TEST(ParallelPortfolioTest, RandSeedBaseShiftsOrderNames) {
  core::VerifierConfig Base;
  Base.RandSeedBase = 10;
  ParallelConfig PC;
  PC.Jobs = 2;
  ParallelPortfolioResult R = runPortfolioParallel(
      "var int x := 0; thread a { x := x + 1; } thread b { x := x + 1; }",
      Base, PC);
  ASSERT_EQ(R.Entries.size(), 5u);
  EXPECT_EQ(R.Entries[0].OrderName, "seq");
  EXPECT_EQ(R.Entries[1].OrderName, "lockstep");
  EXPECT_EQ(R.Entries[2].OrderName, "rand(11)");
  EXPECT_EQ(R.Entries[3].OrderName, "rand(12)");
  EXPECT_EQ(R.Entries[4].OrderName, "rand(13)");
  EXPECT_TRUE(R.decisive());
}

TEST(ParallelPortfolioTest, BuildErrorYieldsUnknownNotCrash) {
  core::VerifierConfig Base;
  ParallelConfig PC;
  PC.Jobs = 2;
  ParallelPortfolioResult R =
      runPortfolioParallel("thread a { this does not parse }", Base, PC);
  EXPECT_FALSE(R.decisive());
  EXPECT_EQ(R.Best.V, core::Verdict::Unknown);
}

/// makePortfolioOrders derives rand seeds purely from its arguments: two
/// independently built portfolios agree letter-for-letter (reproducible
/// and race-free across workers by construction).
TEST(ParallelPortfolioTest, PortfolioOrdersAreReproducible) {
  smt::TermManager TM;
  prog::BuildResult B =
      prog::buildFromSource(workloads::bluetoothSource(3), TM);
  ASSERT_TRUE(B.ok());
  auto First = red::makePortfolioOrders(*B.Program, 5);
  auto Second = red::makePortfolioOrders(*B.Program, 5);
  ASSERT_EQ(First.size(), Second.size());
  uint32_t N = B.Program->numLetters();
  for (size_t I = 0; I < First.size(); ++I) {
    EXPECT_EQ(First[I]->name(), Second[I]->name());
    EXPECT_EQ(First[I]->ranks(red::PreferenceOrder::InitialContext, N),
              Second[I]->ranks(red::PreferenceOrder::InitialContext, N));
  }
}

} // namespace
