//===- bench/bench_hotpath.cpp - Hot-path interning microbenchmark --------===//
///
/// Measures the state-index hot path (docs/PERF.md): the generic sleep-set
/// construction and the program-reduction construction are timed on their
/// hashed InternTable index, and the verifier's DFS is profiled over the
/// tier-1 suites under the "seq" order (median of five passes, in wall and
/// in CPU time).
///
/// Writes a flat BENCH_hotpath.json (path in argv[1], default
/// BENCH_hotpath.json in the working directory) that tools/check_perf.sh
/// diffs against the checked-in baseline at the repo root; a CPU-time
/// regression beyond the tolerance fails the gate.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "program/CfgBuilder.h"
#include "reduction/SleepSet.h"
#include "smt/Solver.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace seqver;
using namespace seqver::bench;
using seqver::automata::Dfa;
using seqver::automata::Letter;

namespace {

//===----------------------------------------------------------------------===//
// Part 1: generic sleep-set construction
//===----------------------------------------------------------------------===//

/// Non-positional order preferring smaller letter indices; the generic
/// construction needs no program to exist.
struct IdentityOrder final : red::PreferenceOrder {
  bool less(Context, Letter A, Letter B) const override { return A < B; }
  bool isPositional() const override { return false; }
  std::string name() const override { return "identity"; }
};

/// Deterministic pseudo-random complete DFA: every letter enabled in every
/// state. The sleep-set unrolling of this automaton fans out into tens of
/// thousands of (state, sleep set) pairs — exactly the index-dominated
/// workload the interning targets.
Dfa syntheticDfa(uint32_t NumStates, uint32_t NumLetters) {
  Dfa D(NumLetters);
  for (uint32_t S = 0; S < NumStates; ++S)
    D.addState(S % 7 == 0);
  D.setInitial(0);
  for (uint32_t S = 0; S < NumStates; ++S)
    for (Letter L = 0; L < NumLetters; ++L)
      D.addTransition(S, L, (S * 31 + (L + 1) * 17) % NumStates);
  return D;
}

struct TimedStates {
  uint32_t States = 0;
  double Seconds = 0;

  double statesPerSec() const {
    return Seconds > 0 ? static_cast<double>(States) / Seconds : 0;
  }
};

TimedStates runSynthetic() {
  constexpr uint32_t kBaseStates = 512;
  constexpr uint32_t kLetters = 12;
  constexpr uint32_t kCap = 40000;
  constexpr int kReps = 5;
  Dfa Base = syntheticDfa(kBaseStates, kLetters);
  IdentityOrder Order;
  // Half the letter pairs commute (same parity): rich, varied sleep sets.
  auto Commutes = [](Letter A, Letter B) { return ((A ^ B) & 1) == 0; };

  TimedStates Out;
  for (int Rep = 0; Rep < kReps; ++Rep) {
    Timer T;
    bool Overflow = false;
    Dfa R = red::sleepSetAutomaton(Base, Order, Commutes, kCap, &Overflow);
    Out.Seconds += T.seconds();
    Out.States = R.numStates();
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Part 2: program-reduction construction
//===----------------------------------------------------------------------===//

/// Times buildReduction over a set of tier-1 sources. The commutativity
/// cache is warmed by one untimed build first, so the timed builds pay no
/// commutativity cost and the measurement isolates the state index.
TimedStates runReductionBench() {
  std::vector<std::string> Sources;
  for (const auto &W : workloads::svcompLikeSuite())
    Sources.push_back(W.Source);
  Sources.push_back(workloads::bluetoothSource(3));
  Sources.push_back(workloads::bluetoothSource(4));

  constexpr int kReps = 3;
  TimedStates Out;
  for (const std::string &Source : Sources) {
    smt::TermManager TM;
    prog::BuildResult B = prog::buildFromSource(Source, TM);
    if (!B.ok())
      continue;
    smt::QueryEngine QE(TM);
    red::CommutativityChecker Commut(
        *B.Program, QE, red::CommutativityChecker::Mode::Static);
    red::SequentialOrder Order(*B.Program);

    red::ReductionConfig Config;
    red::buildReduction(*B.Program, &Order, Commut, Config); // warm cache

    for (int Rep = 0; Rep < kReps; ++Rep) {
      Timer T;
      auto R = red::buildReduction(*B.Program, &Order, Commut, Config);
      Out.Seconds += T.seconds();
      Out.States += R.Automaton.numStates();
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// JSON output
//===----------------------------------------------------------------------===//

struct JsonWriter {
  std::FILE *F;
  bool First = true;

  void field(const char *Name, double Value) {
    std::fprintf(F, "%s  \"%s\": %.6g", First ? "" : ",\n", Name, Value);
    First = false;
  }
  void field(const char *Name, int64_t Value) {
    std::fprintf(F, "%s  \"%s\": %lld", First ? "" : ",\n", Name,
                 static_cast<long long>(Value));
    First = false;
  }
};

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = argc > 1 ? argv[1] : "BENCH_hotpath.json";

  std::printf("== Hot-path interning microbenchmark ==\n");
  std::printf("(per-instance timeout %.0fs)\n\n", benchTimeout());

  // Parts 1 and 2: the two reduction constructions.
  TimedStates Syn = runSynthetic();
  TimedStates Red = runReductionBench();
  std::vector<int> W1 = {34, 10, 12, 14};
  printTableHeader({"construction", "wall(s)", "states", "states/s"}, W1);
  printTableRow({"generic sleep-set automaton", formatDouble(Syn.Seconds, 3),
                 std::to_string(Syn.States),
                 formatDouble(Syn.statesPerSec(), 0)},
                W1);
  printTableRow({"program reduction (tier-1 sum)",
                 formatDouble(Red.Seconds, 3), std::to_string(Red.States),
                 formatDouble(Red.statesPerSec(), 0)},
                W1);
  std::printf("\n");

  // Part 3: full verifier DFS over the tier-1 suites ("seq" order: a single
  // deterministic configuration, so wall time is comparable run-to-run).
  // One pass varies by more than check_perf.sh's tolerance, so the suite
  // runs SuitePasses times and the median pass is reported. The gated
  // figure is the process's CPU time (user + sys) per pass, which leaves
  // out time spent waiting for a core (docs/PERF.md §5 on what noise
  // remains).
  constexpr size_t SuitePasses = 5;
  auto Suite = workloads::svcompLikeSuite();
  for (const auto &Inst : workloads::weaverLikeSuite())
    Suite.push_back(Inst);
  auto CpuSeconds = [] {
    rusage U;
    getrusage(RUSAGE_SELF, &U);
    auto Seconds = [](const timeval &T) {
      return static_cast<double>(T.tv_sec) + T.tv_usec / 1e6;
    };
    return Seconds(U.ru_utime) + Seconds(U.ru_stime);
  };
  std::vector<std::pair<double, std::vector<RunRecord>>> Passes;
  std::vector<double> PassCpu;
  for (size_t Pass = 0; Pass < SuitePasses; ++Pass) {
    Timer SuiteTimer;
    double Cpu0 = CpuSeconds();
    auto Records = runSuite(Suite, "seq");
    PassCpu.push_back(CpuSeconds() - Cpu0);
    Passes.emplace_back(SuiteTimer.seconds(), std::move(Records));
  }
  std::sort(Passes.begin(), Passes.end(),
            [](const auto &X, const auto &Y) { return X.first < Y.first; });
  std::sort(PassCpu.begin(), PassCpu.end());
  const auto &[SuiteWall, Records] = Passes[SuitePasses / 2];
  double SuiteCpu = PassCpu[SuitePasses / 2];
  SuiteAggregate A = aggregate(Records);
  double WallPerRound =
      A.TotalRounds > 0 ? A.TotalSeconds / static_cast<double>(A.TotalRounds)
                        : 0;
  double DfsStatesPerSec =
      A.TotalSeconds > 0
          ? static_cast<double>(A.Stats.get("peak_visited")) / A.TotalSeconds
          : 0;
  std::printf("-- verifier DFS, tier-1 suites, seq order --\n");
  std::printf("instances=%zu successful=%d wall=%.2fs (median of %zu, "
              "range %.2f-%.2fs) cpu=%.2fs (range %.2f-%.2fs) verify=%.2fs "
              "rounds=%lld\n",
              Suite.size(), A.Successful, SuiteWall, SuitePasses,
              Passes.front().first, Passes.back().first, SuiteCpu,
              PassCpu.front(), PassCpu.back(), A.TotalSeconds,
              static_cast<long long>(A.TotalRounds));
  std::printf("wall_s_per_round=%.4f dfs_states_per_sec=%.0f\n", WallPerRound,
              DfsStatesPerSec);
  std::printf("intern_hit_rate=%.1f%% peak_interned_sets=%lld "
              "sleepset_bitset=%.1f%%\n",
              A.internHitRatePct(),
              static_cast<long long>(A.Stats.get("peak_interned_sets")),
              A.sleepsetBitsetPct());

  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot open %s for writing\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(F, "{\n");
  JsonWriter J{F};
  J.field("schema_version", static_cast<int64_t>(1));
  J.field("synthetic_states", static_cast<int64_t>(Syn.States));
  J.field("synthetic_wall_s_hashed", Syn.Seconds);
  J.field("synthetic_states_per_sec_hashed", Syn.statesPerSec());
  J.field("reduction_states", static_cast<int64_t>(Red.States));
  J.field("reduction_wall_s_hashed", Red.Seconds);
  J.field("reduction_states_per_sec_hashed", Red.statesPerSec());
  J.field("suite_instances", static_cast<int64_t>(Suite.size()));
  J.field("suite_successful", static_cast<int64_t>(A.Successful));
  J.field("suite_wall_s", SuiteWall);
  J.field("suite_cpu_s", SuiteCpu);
  J.field("suite_verify_s", A.TotalSeconds);
  J.field("suite_rounds", A.TotalRounds);
  J.field("wall_s_per_round", WallPerRound);
  J.field("dfs_states_per_sec", DfsStatesPerSec);
  J.field("intern_hits", A.Stats.get("intern_hits"));
  J.field("intern_misses", A.Stats.get("intern_misses"));
  J.field("intern_hit_rate_pct", A.internHitRatePct());
  J.field("peak_interned_sets", A.Stats.get("peak_interned_sets"));
  J.field("sleepset_bitset_pct", A.sleepsetBitsetPct());
  std::fprintf(F, "\n}\n");
  std::fclose(F);
  std::printf("\nwrote %s\n", OutPath.c_str());
  return 0;
}
