//===- workloads/Workloads.cpp - Benchmark program generators -------------===//

#include "workloads/Workloads.h"

using namespace seqver;
using namespace seqver::workloads;

namespace {

std::string closeBlock() {
  return "  atomic {\n"
         "    pendingIo := pendingIo - 1;\n"
         "    if (pendingIo == 0) { stoppingEvent := true; }\n"
         "  }\n";
}

/// n threads atomically add 1 to x, Steps times each; the checker claims
/// x can never exceed n * Steps.
std::string counterSource(int NumThreads, int Steps, bool WithBug) {
  std::string Out = "var int x := 0;\n";
  for (int T = 0; T < NumThreads; ++T) {
    Out += "thread worker" + std::to_string(T) + " {\n";
    for (int S = 0; S < Steps; ++S)
      Out += "  x := x + 1;\n";
    Out += "}\n";
  }
  int Bound = NumThreads * Steps;
  if (WithBug)
    Bound -= 1; // the final sum violates the claimed bound
  Out += "thread checker { assert x <= " + std::to_string(Bound) + "; }\n";
  return Out;
}

/// Test-and-set mutex protecting a critical counter; the atomic acquire
/// makes the mutual exclusion claim hold. The buggy variant splits the
/// acquire into a check and a set, admitting the classic race.
std::string mutexSource(int NumThreads, bool WithBug) {
  std::string Out = "var bool locked := false;\nvar int critical := 0;\n";
  for (int T = 0; T < NumThreads; ++T) {
    Out += "thread worker" + std::to_string(T) + " {\n";
    if (WithBug) {
      Out += "  assume !locked;\n  locked := true;\n";
    } else {
      Out += "  atomic { assume !locked; locked := true; }\n";
    }
    Out += "  critical := critical + 1;\n";
    if (T == 0)
      Out += "  assert critical == 1;\n";
    Out += "  critical := critical - 1;\n"
           "  locked := false;\n"
           "}\n";
  }
  return Out;
}

/// Producer/consumer over a counter with a non-negativity invariant.
std::string producerConsumerSource(int Iterations, bool WithBug) {
  std::string Out = "var int count := 0;\n";
  Out += "thread producer {\n  while (*) {\n    count := count + 1;\n  }\n}\n";
  Out += "thread consumer {\n  while (*) {\n";
  if (WithBug)
    Out += "    count := count - 1;\n"; // may drive count negative
  else
    Out += "    atomic { assume count > 0; count := count - 1; }\n";
  Out += "  }\n}\n";
  (void)Iterations;
  Out += "thread checker { assert count >= 0; }\n";
  return Out;
}

/// Two tellers move money between accounts; the total is invariant under
/// the correct (atomic) transfers.
std::string bankSource(bool WithBug) {
  std::string Out = "var int a := 10;\nvar int b := 10;\n";
  Out += "thread teller1 {\n  while (*) {\n"
         "    atomic { a := a - 1; b := b + 1; }\n  }\n}\n";
  if (WithBug) {
    // Non-atomic transfer: the checker can observe a torn total.
    Out += "thread teller2 {\n  while (*) {\n"
           "    b := b - 1;\n    a := a + 1;\n  }\n}\n";
  } else {
    Out += "thread teller2 {\n  while (*) {\n"
           "    atomic { b := b - 1; a := a + 1; }\n  }\n}\n";
  }
  Out += "thread auditor { assert a + b == 20; }\n";
  return Out;
}

/// A ticket lock: each thread draws a ticket and waits for its turn; the
/// critical section counter must stay exclusive.
std::string ticketSource(int NumThreads, bool WithBug) {
  std::string Out = "var int next := 0;\nvar int serving := 0;\n"
                    "var int critical := 0;\n";
  for (int T = 0; T < NumThreads; ++T) {
    std::string MyTicket = "ticket" + std::to_string(T);
    Out = "var int " + MyTicket + " := 0;\n" + Out;
    Out += "thread worker" + std::to_string(T) + " {\n";
    if (WithBug)
      Out += "  " + MyTicket + " := next;\n  next := next + 1;\n";
    else
      Out += "  atomic { " + MyTicket + " := next; next := next + 1; }\n";
    Out += "  assume serving == " + MyTicket + ";\n"
           "  critical := critical + 1;\n";
    if (T == 0)
      Out += "  assert critical == 1;\n";
    Out += "  critical := critical - 1;\n"
           "  serving := serving + 1;\n"
           "}\n";
  }
  return Out;
}

/// Threads raise a personal flag after one increment of the shared counter;
/// the checker observes all flags and claims the exact count (requires a
/// counting proof without reduction).
std::string barrierSource(int NumThreads) {
  std::string Out = "var int x := 0;\n";
  for (int T = 0; T < NumThreads; ++T)
    Out += "var bool done" + std::to_string(T) + " := false;\n";
  for (int T = 0; T < NumThreads; ++T) {
    Out += "thread worker" + std::to_string(T) + " {\n"
           "  x := x + 1;\n"
           "  done" + std::to_string(T) + " := true;\n"
           "}\n";
  }
  Out += "thread checker {\n";
  std::string AllDone;
  for (int T = 0; T < NumThreads; ++T) {
    if (T > 0)
      AllDone += " && ";
    AllDone += "done" + std::to_string(T);
  }
  Out += "  assume " + AllDone + ";\n";
  Out += "  assert x == " + std::to_string(NumThreads) + ";\n}\n";
  return Out;
}

/// n identical incrementers plus a claim x <= n (one step each); symmetric
/// counting workload in the spirit of Weaver's benchmarks.
std::string parallelSumSource(int NumThreads, int Steps) {
  return counterSource(NumThreads, Steps, /*WithBug=*/false);
}


/// Peterson's mutual exclusion for two threads; the buggy variant forgets
/// to yield the turn, losing mutual exclusion.
std::string petersonSource(bool WithBug) {
  std::string Out = "var bool flag0 := false;\nvar bool flag1 := false;\n"
                    "var int turn := 0;\nvar int critical := 0;\n";
  for (int T = 0; T < 2; ++T) {
    std::string Me = std::to_string(T);
    std::string Other = std::to_string(1 - T);
    Out += "thread p" + Me + " {\n"
           "  flag" + Me + " := true;\n";
    if (!WithBug)
      Out += "  turn := " + Other + ";\n";
    Out += "  assume !flag" + Other + " || turn == " + Me + ";\n"
           "  critical := critical + 1;\n";
    if (T == 0)
      Out += "  assert critical == 1;\n";
    Out += "  critical := critical - 1;\n"
           "  flag" + Me + " := false;\n"
           "}\n";
  }
  return Out;
}

/// Readers/writer exclusion over a shared counter; the writer must see no
/// active readers. The buggy variant tears the writer's acquire.
std::string readersWriterSource(int NumReaders, bool WithBug) {
  std::string Out = "var int readers := 0;\nvar bool writing := false;\n";
  for (int T = 0; T < NumReaders; ++T) {
    Out += "thread reader" + std::to_string(T) + " {\n"
           "  atomic { assume !writing; readers := readers + 1; }\n"
           "  readers := readers - 1;\n"
           "}\n";
  }
  Out += "thread writer {\n";
  if (WithBug)
    Out += "  assume readers == 0 && !writing;\n  writing := true;\n";
  else
    Out += "  atomic { assume readers == 0 && !writing; "
           "writing := true; }\n";
  Out += "  assert readers == 0;\n"
         "  writing := false;\n"
         "}\n";
  return Out;
}

} // namespace

std::string seqver::workloads::bluetoothSource(int NumUsers, bool WithBug) {
  std::string Out = "var int pendingIo := 1;\n"
                    "var bool stoppingFlag := false;\n"
                    "var bool stoppingEvent := false;\n"
                    "var bool stopped := false;\n";
  for (int U = 0; U < NumUsers; ++U) {
    Out += "thread user" + std::to_string(U + 1) + " {\n"
           "  while (*) {\n";
    if (WithBug) {
      // Original KISS race: the flag check and the increment are separate.
      Out += "    assume !stoppingFlag;\n"
             "    pendingIo := pendingIo + 1;\n";
    } else {
      Out += "    atomic { assume !stoppingFlag; "
             "pendingIo := pendingIo + 1; }\n";
    }
    // The correctness assertion lives in one user thread only (symmetry,
    // Sec. 2).
    if (U == 0)
      Out += "    assert !stopped;\n";
    Out += closeBlock();
    Out += "  }\n}\n";
  }
  Out += "thread stop {\n"
         "  stoppingFlag := true;\n" +
         closeBlock() +
         "  assume stoppingEvent;\n"
         "  stopped := true;\n"
         "}\n";
  return Out;
}

std::vector<WorkloadInstance> seqver::workloads::svcompLikeSuite() {
  std::vector<WorkloadInstance> Out;
  auto Add = [&Out](std::string Name, std::string Source, bool Correct,
                    std::string Family) {
    Out.push_back({std::move(Name), std::move(Source), Correct,
                   std::move(Family)});
  };

  for (int N = 2; N <= 4; ++N) {
    for (int Steps = 1; Steps <= 2; ++Steps) {
      std::string Tag =
          std::to_string(N) + "x" + std::to_string(Steps);
      Add("counter_safe_" + Tag, counterSource(N, Steps, false), true,
          "counter_race");
      Add("counter_bug_" + Tag, counterSource(N, Steps, true), false,
          "counter_race");
    }
  }
  for (int N = 2; N <= 4; ++N) {
    Add("mutex_safe_" + std::to_string(N), mutexSource(N, false), true,
        "mutex");
    Add("mutex_bug_" + std::to_string(N), mutexSource(N, true), false,
        "mutex");
  }
  Add("prodcons_safe", producerConsumerSource(2, false), true, "prodcons");
  Add("prodcons_bug", producerConsumerSource(2, true), false, "prodcons");
  Add("bank_safe", bankSource(false), true, "bank");
  Add("bank_bug", bankSource(true), false, "bank");
  for (int N = 2; N <= 3; ++N) {
    Add("ticket_safe_" + std::to_string(N), ticketSource(N, false), true,
        "ticket");
    Add("ticket_bug_" + std::to_string(N), ticketSource(N, true), false,
        "ticket");
  }
  for (int N = 1; N <= 4; ++N)
    Add("bluetooth_bug_" + std::to_string(N), bluetoothSource(N, true),
        false, "bluetooth");
  Add("peterson_safe", petersonSource(false), true, "peterson");
  Add("peterson_bug", petersonSource(true), false, "peterson");
  for (int N = 2; N <= 3; ++N) {
    Add("rw_safe_" + std::to_string(N), readersWriterSource(N, false), true,
        "readers_writer");
    Add("rw_bug_" + std::to_string(N), readersWriterSource(N, true), false,
        "readers_writer");
  }
  Add("counter_safe_5x2", counterSource(5, 2, false), true, "counter_race");
  Add("counter_bug_5x2", counterSource(5, 2, true), false, "counter_race");
  Add("mutex_safe_5", mutexSource(5, false), true, "mutex");
  Add("mutex_bug_5", mutexSource(5, true), false, "mutex");
  return Out;
}

std::vector<WorkloadInstance> seqver::workloads::weaverLikeSuite() {
  std::vector<WorkloadInstance> Out;
  auto Add = [&Out](std::string Name, std::string Source,
                    std::string Family) {
    Out.push_back({std::move(Name), std::move(Source), true,
                   std::move(Family)});
  };
  for (int N = 1; N <= 6; ++N)
    Add("bluetooth_" + std::to_string(N), bluetoothSource(N, false),
        "bluetooth");
  for (int N = 2; N <= 6; ++N)
    Add("parallel_sum_" + std::to_string(N), parallelSumSource(N, 1),
        "parallel_sum");
  for (int N = 2; N <= 5; ++N)
    Add("barrier_" + std::to_string(N), barrierSource(N), "barrier");
  Add("parallel_sum_3x2", parallelSumSource(3, 2), "parallel_sum");
  Add("parallel_sum_4x2", parallelSumSource(4, 2), "parallel_sum");
  return Out;
}

std::string seqver::workloads::loopSumSource(int N, bool WithBug) {
  int Bound = WithBug ? N - 1 : N;
  std::string Out = "var int i := 0;\nvar int total := 0;\n";
  Out += "thread worker {\n"
         "  while (i < " + std::to_string(N) + ") {\n"
         "    total := total + 1;\n"
         "    i := i + 1;\n"
         "  }\n"
         "}\n";
  Out += "thread checker { assert total <= " + std::to_string(Bound) +
         "; }\n";
  return Out;
}

std::string seqver::workloads::chaseSource(bool WithBug) {
  std::string Out = "var int a := 0;\nvar int b := 0;\n";
  Out += "thread stepper {\n"
         "  while (*) {\n"
         "    a := a + 1;\n"
         "    b := b + 1;\n"
         "  }\n"
         "}\n";
  // a runs at most one step ahead of b; the bug variant denies even that.
  Out += std::string("thread checker { assert a - b <= ") +
         (WithBug ? "0" : "1") + "; }\n";
  return Out;
}

std::string seqver::workloads::nestedLoopSource(int M, bool WithBug) {
  int Bound = WithBug ? M - 1 : M;
  std::string Out = "var int i := 0;\nvar int j := 0;\n";
  Out += "thread worker {\n"
         "  while (i < " + std::to_string(M) + ") {\n"
         "    j := 0;\n"
         "    while (j < " + std::to_string(M) + ") {\n"
         "      j := j + 1;\n"
         "    }\n"
         "    i := i + 1;\n"
         "  }\n"
         "}\n";
  Out += "thread checker { assert j <= " + std::to_string(Bound) + "; }\n";
  return Out;
}

std::string seqver::workloads::affineSumSource(int N, bool WithBug) {
  int Bound = 2 * N - (WithBug ? 1 : 0);
  std::string Out = "var int i := 0;\nvar int total := 0;\n";
  Out += "thread worker {\n"
         "  while (i < " + std::to_string(N) + ") {\n"
         "    total := total + 2;\n"
         "    i := i + 1;\n"
         "  }\n"
         "}\n";
  Out += "thread checker { assert total <= " + std::to_string(Bound) +
         "; }\n";
  return Out;
}

std::string seqver::workloads::stridePairSource(int N, bool WithBug) {
  int Bound = 2 * N - (WithBug ? 1 : 0);
  std::string Out = "var int i := 0;\nvar int j := 0;\n";
  Out += "thread worker {\n"
         "  while (i < " + std::to_string(N) + ") {\n"
         "    j := j + 1;\n"
         "    j := j + 1;\n"
         "    i := i + 1;\n"
         "  }\n"
         "}\n";
  Out += "thread checker { assert j <= " + std::to_string(Bound) + "; }\n";
  return Out;
}

std::vector<WorkloadInstance> seqver::workloads::affineSuite() {
  std::vector<WorkloadInstance> Out;
  auto Add = [&Out](std::string Name, std::string Source, bool Correct) {
    Out.push_back({std::move(Name), std::move(Source), Correct, "affine"});
  };
  // Same off-threshold bounds as the loop-heavy suite: the interval
  // widening overshoots, so these proofs genuinely need the equalities.
  Add("affine_sum_safe_5", affineSumSource(5, false), true);
  Add("affine_sum_bug_5", affineSumSource(5, true), false);
  Add("stride_pair_safe_5", stridePairSource(5, false), true);
  Add("stride_pair_bug_5", stridePairSource(5, true), false);
  return Out;
}

std::vector<WorkloadInstance> seqver::workloads::loopHeavySuite() {
  std::vector<WorkloadInstance> Out;
  auto Add = [&Out](std::string Name, std::string Source, bool Correct) {
    Out.push_back({std::move(Name), std::move(Source), Correct,
                   "loop_heavy"});
  };
  // Bounds deliberately off the widening thresholds (5, 6) so that the
  // ascending phase overshoots and the narrowing passes must recover.
  Add("loop_sum_safe_5", loopSumSource(5, false), true);
  Add("loop_sum_bug_5", loopSumSource(5, true), false);
  Add("loop_sum_safe_6", loopSumSource(6, false), true);
  Add("loop_sum_bug_6", loopSumSource(6, true), false);
  Add("chase_safe", chaseSource(false), true);
  Add("chase_bug", chaseSource(true), false);
  Add("nested_safe_3", nestedLoopSource(3, false), true);
  Add("nested_bug_3", nestedLoopSource(3, true), false);
  return Out;
}

std::vector<WorkloadInstance> seqver::workloads::tier1Suite() {
  std::vector<WorkloadInstance> Out = svcompLikeSuite();
  for (const auto &Suite :
       {weaverLikeSuite(), loopHeavySuite(), affineSuite()})
    Out.insert(Out.end(), Suite.begin(), Suite.end());
  return Out;
}
