//===- perfbench/perfbench.cpp - Time to verdict, end to end and by layer -===//
///
/// \file
/// The repository's benchmark; README.md beside this file documents the
/// workloads, the metrics, and how to run it. One process runs one workload
/// as a closed loop: one client, and the next instance starts only after
/// the previous verdict returned. It calls the same public API the seqver
/// CLI uses (build, dead-edge pruning with the Full preset, a Verifier with
/// a CommutOracle under the seq order, or the parallel portfolio race),
/// times every call from outside, and reads the counters each result
/// already carries. Every verdict is checked against ground truth and every
/// Incorrect witness is replayed through the interpreter.
///
/// Usage: perfbench --workload <name> --seed <n> --seconds <s>
///                  --trace <0|1> --out-dir <dir>
///
/// The last line of standard output is one JSON object with the keys
/// correct, attempted, failed and metrics: the end-to-end metrics when
/// --trace is 0, the per-layer metrics when it is 1.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "analysis/Analysis.h"
#include "core/Verifier.h"
#include "program/CfgBuilder.h"
#include "program/Interpreter.h"
#include "reduction/CommutOracle.h"
#include "reduction/PreferenceOrder.h"
#include "runtime/ParallelPortfolio.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

using namespace seqver;
using namespace perfbench;
using core::Verdict;
using core::VerificationResult;
using workloads::WorkloadInstance;

namespace {

/// Per-instance time budget. The slowest instance decides in about 2 s, so
/// a timeout here means a regression, counted as a failed run.
constexpr double InstanceBudgetSeconds = 20;
/// The race never runs more worker threads than this, nor than the cores.
constexpr unsigned MaxRaceJobs = 4;
/// Fewest timed passes per run. Five keeps the pooled median of the five
/// bluetooth instances inside one instance's samples (with four passes it
/// falls between two instances), and gives warm_pass_s and the traced
/// mode's overhead comparison at least two passes each.
constexpr int MinPasses = 5;

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Workload {
  const char *Name;
  /// Race the portfolio (with the proof cache) instead of the seq order.
  bool Race;
  std::vector<WorkloadInstance> (*Generate)();
  /// Seconds one timed pass (on the race: a cold and a warm pass) took on
  /// a 4-core x86 VM when the benchmark was written; sets the number of
  /// passes.
  double NominalPassSeconds;
};

void append(std::vector<WorkloadInstance> &Out,
            std::vector<WorkloadInstance> More) {
  for (WorkloadInstance &W : More)
    Out.push_back(std::move(W));
}

std::vector<WorkloadInstance> bluetoothScaling() {
  std::vector<WorkloadInstance> Out;
  for (int N : {5, 6, 7})
    Out.push_back({"bluetooth_" + std::to_string(N),
                   workloads::bluetoothSource(N), true, "bluetooth"});
  for (int N : {5, 6})
    Out.push_back({"bluetooth_bug_" + std::to_string(N),
                   workloads::bluetoothSource(N, /*WithBug=*/true), false,
                   "bluetooth"});
  return Out;
}

std::vector<WorkloadInstance> solverSuites() {
  std::vector<WorkloadInstance> Out = workloads::svcompLikeSuite();
  append(Out, workloads::loopHeavySuite());
  append(Out, workloads::affineSuite());
  return Out;
}

std::vector<WorkloadInstance> tier1Suites() {
  std::vector<WorkloadInstance> Out = solverSuites();
  append(Out, workloads::weaverLikeSuite());
  return Out;
}

const Workload Workloads[] = {
    {"bluetooth_scaling", false, bluetoothScaling, 5.0},
    {"solver_suites", false, solverSuites, 0.9},
    {"portfolio_race", true, tier1Suites, 2.5},
};

/// A run makes a fixed number of timed passes: --seconds over the nominal
/// pass time. A time-boxed loop would let a faster commit collect more
/// samples, and the sample count decides which percentile verdict_ms_tail
/// is; a fixed count keeps that percentile the same on both sides of a
/// comparison.
int timedPasses(const Workload &WL, double Seconds) {
  return std::max(MinPasses,
                  static_cast<int>(std::lround(Seconds /
                                               WL.NominalPassSeconds)));
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct MetricDef {
  const char *Name;
  const char *Unit;
};

const MetricDef EndToEndMetrics[] = {
    {"setup_s", "s"},
    {"pass_s", "s"},
    {"warm_pass_s", "s"},
    {"verdict_ms_p50", "ms"},
    {"verdict_ms_tail", "ms"},
    {"verdict_ms_geomean", "ms"},
    {"solved_pct", "%"},
    {"peak_rss_mb", "MB"},
};

const MetricDef LayerMetrics[] = {
    {"frontend.build_s", "s"},
    {"frontend.letters", "count"},
    {"analysis.prune_s", "s"},
    {"analysis.edges_pruned", "count"},
    {"core.setup_s", "s"},
    {"core.run_s", "s"},
    {"dfs.self_s", "s"},
    {"dfs.visited_total", "count"},
    {"dfs.peak_visited", "count"},
    {"dfs.sleep_pruned", "count"},
    {"dfs.persistent_pruned", "count"},
    {"dfs.useless_cache_hits", "count"},
    {"dfs.states_per_s", "1/s"},
    {"intern.hits", "count"},
    {"intern.misses", "count"},
    {"intern.hit_ratio", "ratio"},
    {"intern.peak_sleep_sets", "count"},
    {"reduction.commut_queries", "count"},
    {"reduction.commut_cache_hits", "count"},
    {"reduction.commut_static", "count"},
    {"reduction.commut_semantic", "count"},
    {"reduction.semantic_ratio", "ratio"},
    {"reduction.shared_hits", "count"},
    {"reduction.shared_misses", "count"},
    {"refine.rounds", "count"},
    {"refine.proof_size", "count"},
    {"refine.hoare_queries", "count"},
    {"smt.solver_s", "s"},
    {"smt.share", "ratio"},
    {"smt.queries", "count"},
    {"smt.cache_hits", "count"},
    {"smt.sessions", "count"},
    {"smt.assumption_solves", "count"},
    {"smt.warm_pivots", "count"},
    {"runtime.race_wall_s", "s"},
    {"runtime.race_cost_s", "s"},
    {"runtime.cost_per_wall", "ratio"},
    {"runtime.losers_cancelled", "count"},
    {"runtime.losers_unknown", "count"},
    {"runtime.losers_timeout", "count"},
    {"runtime.losers_decisive", "count"},
    {"runtime.winner_seq_pct", "%"},
    {"persist.cache_hits", "count"},
    {"persist.cache_misses", "count"},
    {"persist.cache_stores", "count"},
    {"persist.cache_seeded", "count"},
    {"persist.rounds_saved_warm", "count"},
    {"persist.cold_cache_hits", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

/// Per-layer figures of one pass (or one set-up), by metric name. Names
/// starting with '~' are intermediate sums that are never printed.
using Tally = std::map<std::string, double>;

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

void setMax(Tally &T, const std::string &Name, double V) {
  double &Slot = T[Name];
  Slot = std::max(Slot, V);
}

/// Counters that add up across runs and workers.
void addCounters(Tally &T, const Statistics &S) {
  auto Add = [&](const char *Metric, const char *Counter) {
    T[Metric] += static_cast<double>(S.get(Counter));
  };
  Add("dfs.sleep_pruned", "sleep_pruned");
  Add("dfs.persistent_pruned", "persistent_pruned");
  Add("dfs.useless_cache_hits", "useless_cache_hits");
  Add("intern.hits", "intern_hits");
  Add("intern.misses", "intern_misses");
  Add("reduction.commut_queries", "commut_queries");
  Add("reduction.commut_cache_hits", "commut_cache_hits");
  Add("reduction.commut_static", "commut_static");
  Add("reduction.commut_static", "commut_octagon");
  Add("reduction.commut_static", "commut_karr");
  Add("reduction.commut_semantic", "commut_semantic");
  Add("reduction.shared_hits", "commut_shared_hits");
  Add("reduction.shared_misses", "commut_shared_misses");
  Add("refine.hoare_queries", "hoare_queries");
  Add("smt.queries", "smt_queries");
  Add("smt.cache_hits", "smt_cache_hits");
  Add("smt.sessions", "smt_sessions");
  Add("smt.assumption_solves", "smt_assumption_solves");
  Add("smt.warm_pivots", "smt_tableau_warm_pivots");
}

/// Figures of one verification. Single must be a single-order result, as
/// the gauges (peak_visited, peak_interned_sets) are read from it: the
/// race's merged statistics sum them over workers. Counters are the run's
/// own statistics or the race's merged ones. CostSeconds is the verifier
/// time they were spent in (the run itself, or the race's summed per-order
/// time).
void addVerification(Tally &T, const VerificationResult &Single,
                     const Statistics &Counters, double CostSeconds) {
  double Solver = static_cast<double>(Counters.get("smt_solver_us")) / 1e6;
  T["smt.solver_s"] += Solver;
  T["dfs.self_s"] += CostSeconds - Solver;
  T["~cost_s"] += CostSeconds;
  addCounters(T, Counters);
  // visited_total is only bumped on the round that proves the program, so
  // it reads 0 on every Incorrect run; count it on Correct runs only.
  if (Single.V == Verdict::Correct) {
    T["dfs.visited_total"] +=
        static_cast<double>(Counters.get("visited_total"));
    T["~correct_dfs_s"] += CostSeconds - Solver;
  }
  setMax(T, "dfs.peak_visited",
         static_cast<double>(Single.Stats.get("peak_visited")));
  setMax(T, "intern.peak_sleep_sets",
         static_cast<double>(Single.Stats.get("peak_interned_sets")));
  T["refine.rounds"] += Single.Rounds;
  T["refine.proof_size"] += static_cast<double>(Single.ProofSize);
}

void addPersist(Tally &T, const Statistics &S) {
  T["persist.cache_hits"] += static_cast<double>(S.get("cache_hits"));
  T["persist.cache_misses"] += static_cast<double>(S.get("cache_misses"));
  T["persist.cache_stores"] += static_cast<double>(S.get("cache_stores"));
  T["persist.cache_seeded"] += static_cast<double>(S.get("cache_seeded"));
  T["persist.rounds_saved_warm"] +=
      static_cast<double>(S.get("rounds_saved_warm"));
}

/// Ratios, computed from one pass's sums.
void finishPass(Tally &T) {
  T["dfs.states_per_s"] = ratio(T["dfs.visited_total"], T["~correct_dfs_s"]);
  T["intern.hit_ratio"] =
      ratio(T["intern.hits"], T["intern.hits"] + T["intern.misses"]);
  T["reduction.semantic_ratio"] =
      ratio(T["reduction.commut_semantic"], T["reduction.commut_queries"]);
  T["smt.share"] = ratio(T["smt.solver_s"], T["~cost_s"]);
  T["runtime.cost_per_wall"] =
      ratio(T["runtime.race_cost_s"], T["runtime.race_wall_s"]);
  T["runtime.winner_seq_pct"] = 100 * ratio(T["~seq_wins"], T["~races"]);
}

Tally medianTally(const std::vector<Tally> &Tallies) {
  Tally Out;
  for (const MetricDef &M : LayerMetrics) {
    std::vector<double> Values;
    for (const Tally &T : Tallies) {
      auto It = T.find(M.Name);
      Values.push_back(It == T.end() ? 0 : It->second);
    }
    Out[M.Name] = median(Values);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Checking outputs
//===----------------------------------------------------------------------===//

/// Runs attempted, runs that did not end in the ground-truth verdict, and
/// whether every decisive output was right.
struct Outcomes {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;
};

/// The interpreter, independent of the verifier, must execute the witness
/// and end in an error location.
bool witnessReplays(const prog::ConcurrentProgram &P,
                    const std::vector<automata::Letter> &Word) {
  if (!prog::replayTrace(P, Word))
    return false;
  prog::ProductState S = P.initialProductState();
  for (automata::Letter L : Word) {
    const prog::Action &A = P.action(L);
    size_t T = static_cast<size_t>(A.ThreadId);
    for (const auto &[EdgeLetter, To] : P.thread(A.ThreadId).Edges[S[T]])
      if (EdgeLetter == L) {
        S[T] = To;
        break;
      }
  }
  return P.isErrorState(S);
}

/// Checks one verdict; returns the seconds the check took, which the pass
/// time leaves out.
double check(const WorkloadInstance &W, const VerificationResult &R,
             const prog::ConcurrentProgram &P, SpanRecorder &Rec,
             uint32_t Instance, Outcomes &O) {
  ++O.Attempted;
  if (!core::isDecisive(R.V)) {
    ++O.Failed;
    std::fprintf(stderr, "perfbench: %s ended %s\n", W.Name.c_str(),
                 core::verdictName(R.V).c_str());
    return 0;
  }
  if ((R.V == Verdict::Correct) != W.ExpectedCorrect) {
    ++O.Failed;
    O.Correct = false;
    std::fprintf(stderr, "perfbench: WRONG verdict %s on %s\n",
                 core::verdictName(R.V).c_str(), W.Name.c_str());
    return 0;
  }
  if (R.V != Verdict::Incorrect)
    return 0;
  bool Replays = false;
  double Seconds =
      timed(Rec, "witness.replay", SpanRecorder::None, Instance, [&] {
        Replays = witnessReplays(P, R.Witness);
      }).first;
  if (!Replays) {
    ++O.Failed;
    O.Correct = false;
    std::fprintf(stderr, "perfbench: witness of %s does not replay\n",
                 W.Name.c_str());
  }
  return Seconds;
}

//===----------------------------------------------------------------------===//
// Calls into the verifier
//===----------------------------------------------------------------------===//

/// A program with the term manager it lives in.
struct Built {
  std::unique_ptr<smt::TermManager> TM = std::make_unique<smt::TermManager>();
  prog::BuildResult B;
};

[[noreturn]] void buildFailed(const WorkloadInstance &W, const Built &P) {
  std::fprintf(stderr, "perfbench: %s does not build: %s\n", W.Name.c_str(),
               P.B.Error.c_str());
  std::exit(1);
}

/// A seq-order verifier as the CLI's `--order=seq` constructs it: a fresh
/// shared commutativity oracle and the default configuration.
struct SeqVerifier {
  red::CommutOracle Oracle;
  std::unique_ptr<red::SequentialOrder> Order;
  std::unique_ptr<core::Verifier> V;

  explicit SeqVerifier(const prog::ConcurrentProgram &P) {
    Order = std::make_unique<red::SequentialOrder>(P);
    core::VerifierConfig Config;
    Config.Order = Order.get();
    Config.SharedCommut = &Oracle;
    Config.TimeoutSeconds = InstanceBudgetSeconds;
    V = std::make_unique<core::Verifier>(P, Config);
  }
};

/// Build, prune and construct the verifier for one instance, the steps
/// set-up repeats; adds their times and sizes to T.
void prepare(const WorkloadInstance &W, Built &P, SpanRecorder &Rec,
             uint32_t Parent, uint32_t Instance, Tally &T,
             std::unique_ptr<SeqVerifier> &Out) {
  T["frontend.build_s"] +=
      timed(Rec, "frontend.build", Parent, Instance, [&] {
        P.B = prog::buildFromSource(W.Source, *P.TM);
      }).first;
  if (!P.B.ok())
    buildFailed(W, P);
  T["frontend.letters"] += P.B.Program->numLetters();
  analysis::PruneStats PS;
  T["analysis.prune_s"] +=
      timed(Rec, "analysis.prune", Parent, Instance, [&] {
        analysis::pruneDeadEdges(*P.B.Program, analysis::PrunePreset::Full,
                                 &PS);
      }).first;
  T["analysis.edges_pruned"] += PS.Removed;
  T["core.setup_s"] += timed(Rec, "core.setup", Parent, Instance, [&] {
                         Out = std::make_unique<SeqVerifier>(*P.B.Program);
                       }).first;
}

/// State one pass shares across its instances.
struct Pass {
  SpanRecorder &Rec;
  Outcomes &O;
  uint32_t &NextInstance;
  Tally T;
  double CheckSeconds = 0;
};

/// What one verification reports for the per-instance rows.
struct InstanceRow {
  std::vector<double> Ms;
  Verdict V = Verdict::Unknown;
  int Rounds = 0;
  size_t ProofSize = 0;
  int64_t PeakVisited = 0;

  void note(const VerificationResult &R, double Seconds) {
    Ms.push_back(1000 * Seconds);
    V = R.V;
    Rounds = R.Rounds;
    ProofSize = R.ProofSize;
    PeakVisited = R.Stats.get("peak_visited");
  }
};

/// One seq-order verification, timed from source text to verdict.
void verifySeq(const WorkloadInstance &W, Pass &Ps, InstanceRow &Row) {
  uint32_t Instance = Ps.NextInstance++;
  uint32_t Root = Ps.Rec.open("verdict", SpanRecorder::None, Instance);
  Clock::time_point T0 = Clock::now();
  Built P;
  std::unique_ptr<SeqVerifier> SV;
  prepare(W, P, Ps.Rec, Root, Instance, Ps.T, SV);
  VerificationResult R;
  auto [RunSeconds, RunSpan] = timed(Ps.Rec, "run", Root, Instance,
                                     [&] { R = SV->V->run(); });
  double Seconds = secondsBetween(T0, Clock::now());
  Ps.Rec.attach(RunSpan, R.Stats);
  Ps.Rec.close(Root);
  Ps.T["core.run_s"] += RunSeconds;
  addVerification(Ps.T, R, R.Stats, RunSeconds);
  Row.note(R, Seconds);
  Ps.CheckSeconds += check(W, R, *P.B.Program, Ps.Rec, Instance, Ps.O);
}

unsigned raceJobs() {
  unsigned Cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min(MaxRaceJobs, Cores);
}

/// One portfolio race, as `seqver --portfolio=parallel` runs it: CLI
/// default pruning, a fresh commutativity oracle, and the proof cache in
/// CacheDir. Replay is the same source built and pruned the same way, so
/// the winner's witness letters mean the same edges. A warm race adds only
/// its cache traffic to the pass; a cold one adds everything else.
void verifyRace(const WorkloadInstance &W,
                const prog::ConcurrentProgram &Replay, uint64_t RandSeedBase,
                const std::string &CacheDir, bool Warm, Pass &Ps,
                InstanceRow *Row) {
  uint32_t Instance = Ps.NextInstance++;
  red::CommutOracle Oracle;
  core::VerifierConfig Base;
  Base.TimeoutSeconds = InstanceBudgetSeconds;
  Base.RandSeedBase = RandSeedBase;
  Base.CacheDir = CacheDir;
  runtime::ParallelConfig PC;
  PC.Jobs = raceJobs();
  PC.PruneDeadEdges = PC.OctagonPrune = PC.KarrPrune = true;
  PC.SharedCommut = &Oracle;
  uint32_t Root = Ps.Rec.open("verdict", SpanRecorder::None, Instance);
  runtime::ParallelPortfolioResult R;
  auto [Seconds, RunSpan] = timed(Ps.Rec, "run", Root, Instance, [&] {
    R = runtime::runPortfolioParallel(W.Source, Base, PC);
  });
  Ps.Rec.attach(RunSpan, R.Merged);
  Ps.Rec.close(Root);
  Tally &T = Ps.T;
  if (Warm) {
    addPersist(T, R.Merged);
  } else {
    T["core.run_s"] += Seconds;
    addVerification(T, R.Best, R.Merged, R.sumSeconds());
    T["persist.cold_cache_hits"] +=
        static_cast<double>(R.Merged.get("cache_hits"));
    T["runtime.race_wall_s"] += R.WallSeconds;
    T["runtime.race_cost_s"] += R.sumSeconds();
    T["~races"] += 1;
    T["~seq_wins"] += R.BestOrder == "seq";
    // Losers by verdict; a cancelled loser is what the scheduler did to it.
    for (const core::PortfolioEntry &E : R.Entries) {
      if (E.OrderName == R.BestOrder)
        continue;
      switch (E.Result.V) {
      case Verdict::Cancelled:
        T["runtime.losers_cancelled"] += 1;
        break;
      case Verdict::Unknown:
        T["runtime.losers_unknown"] += 1;
        break;
      case Verdict::Timeout:
        T["runtime.losers_timeout"] += 1;
        break;
      case Verdict::Correct:
      case Verdict::Incorrect:
        T["runtime.losers_decisive"] += 1;
        break;
      }
    }
    if (Row)
      Row->note(R.Best, Seconds);
  }
  Ps.CheckSeconds += check(W, R.Best, Replay, Ps.Rec, Instance, Ps.O);
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

struct Options {
  const Workload *WL = nullptr;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir;
};

bool parseOptions(int Argc, char **Argv, Options &O) {
  bool HaveSeed = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      for (const Workload &W : Workloads)
        if (Value == W.Name)
          O.WL = &W;
    } else if (Key == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !Value.empty();
    } else if (Key == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
      if (*End != '\0' || !(O.Seconds > 0))
        return false;
    } else if (Key == "--trace") {
      if (Value != "0" && Value != "1")
        return false;
      O.Trace = Value == "1";
    } else if (Key == "--out-dir") {
      O.OutDir = Value;
    } else {
      return false;
    }
  }
  return O.WL && HaveSeed && !O.OutDir.empty() && Argc % 2 == 1;
}

/// Deterministic Fisher-Yates shuffle of 0..N-1 from (Seed, Pass).
std::vector<size_t> shuffledOrder(size_t N, uint64_t Seed, int Pass) {
  uint64_t State = Seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(Pass);
  auto Next = [&State] {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  };
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[Next() % I]);
  return Order;
}

/// The highest of these percentiles with at least 10 samples beyond it
/// (nearest rank); all zero below 20 samples.
struct Tail {
  double Percentile = 0;
  double Value = 0;
  size_t Beyond = 0;
};
Tail tailPercentile(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    size_t Rank =
        static_cast<size_t>(std::ceil(P / 100 * static_cast<double>(N)));
    if (Rank >= 1 && N - Rank >= 10)
      return {P, Samples[Rank - 1], N - Rank};
  }
  return {};
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024; // kB on Linux
}

void printMetric(const char *Name, double Value, const char *Unit) {
  std::printf("metric %-28s %14.6f %s\n", Name, Value, Unit);
}

void printJson(const Outcomes &O, const MetricDef *Defs, size_t NumDefs,
               const Tally &Values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              O.Correct ? "true" : "false",
              static_cast<unsigned long long>(O.Attempted),
              static_cast<unsigned long long>(O.Failed));
  for (size_t I = 0; I < NumDefs; ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Defs[I].Name, Values.at(Defs[I].Name),
                Defs[I].Unit);
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  if (!parseOptions(Argc, Argv, Opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<bluetooth_scaling|solver_suites|portfolio_race> "
                 "--seed <n> --seconds <s> --trace <0|1> --out-dir <dir>\n");
    return 2;
  }
  const Workload &WL = *Opt.WL;
  std::error_code EC;
  std::filesystem::create_directories(Opt.OutDir, EC);
  const std::string CacheDir = Opt.OutDir + "/proof-cache-" + WL.Name;

  SpanRecorder Rec;
  Rec.setRecording(Opt.Trace);
  uint32_t NextInstance = 1;
  Outcomes O;

  // Set-up: generate, build, prune and construct a verifier for every
  // instance. It runs once before the first pass and again before every
  // timed pass, so its samples span the run as the passes do; setup_s is
  // their median.
  std::vector<double> SetupSeconds;
  std::vector<Tally> SetupTallies;
  auto SetUp = [&] {
    Tally T;
    Clock::time_point T0 = Clock::now();
    std::vector<WorkloadInstance> Generated;
    timed(Rec, "workload.generate", SpanRecorder::None, 0,
          [&] { Generated = WL.Generate(); });
    for (const WorkloadInstance &W : Generated) {
      uint32_t Instance = NextInstance++;
      uint32_t Root = Rec.open("setup", SpanRecorder::None, Instance);
      Built P;
      std::unique_ptr<SeqVerifier> SV;
      prepare(W, P, Rec, Root, Instance, T, SV);
      Rec.close(Root);
    }
    SetupSeconds.push_back(secondsBetween(T0, Clock::now()));
    SetupTallies.push_back(std::move(T));
  };
  SetUp();

  const std::vector<WorkloadInstance> Instances = WL.Generate();
  // The race builds its programs inside the workers; the replay check
  // needs its own copy, built and pruned the same way.
  std::vector<Built> ReplayPrograms(WL.Race ? Instances.size() : 0);
  for (size_t I = 0; I < ReplayPrograms.size(); ++I) {
    Built &P = ReplayPrograms[I];
    P.B = prog::buildFromSource(Instances[I].Source, *P.TM);
    if (!P.B.ok())
      buildFailed(Instances[I], P);
    analysis::pruneDeadEdges(*P.B.Program, analysis::PrunePreset::Full);
  }

  // The timed passes. The traced mode records spans on every other pass,
  // to measure its own overhead. The race first runs one untimed pass pair: the first races of a
  // process run about 40% slower (new worker threads' allocator arenas and
  // page faults), which the seq workloads do not show.
  const int WarmUpPasses = WL.Race ? 1 : 0;
  std::vector<InstanceRow> Rows(Instances.size());
  std::vector<double> PassSeconds, WarmSeconds, TracedSeconds,
      UntracedSeconds;
  std::vector<Tally> PassTallies;
  const int Passes = timedPasses(WL, Opt.Seconds);
  for (int PassNo = 0; PassNo < WarmUpPasses + Passes; ++PassNo) {
    bool Timed = PassNo >= WarmUpPasses;
    bool Traced = Opt.Trace && Timed && PassNo % 2 == 0;
    Rec.setRecording(Traced);
    std::vector<size_t> Order =
        shuffledOrder(Instances.size(), Opt.Seed, PassNo);
    // Each pass races its own three rand(k) orders, all derived from the
    // seed, so one run averages over several of them.
    uint64_t RandSeedBase =
        Opt.Seed * 1000 + 3 * static_cast<uint64_t>(PassNo);
    if (Timed)
      SetUp();
    Pass Ps{Rec, O, NextInstance, {}, 0};
    Clock::time_point P0 = Clock::now();
    double Seconds = 0;
    if (WL.Race) {
      // A cold pass starts from an empty proof cache and fills it; the
      // warm pass after it, in the same order, reads it.
      std::filesystem::remove_all(CacheDir, EC);
      std::filesystem::create_directories(CacheDir, EC);
      for (size_t I : Order)
        verifyRace(Instances[I], *ReplayPrograms[I].B.Program, RandSeedBase,
                   CacheDir, /*Warm=*/false, Ps, Timed ? &Rows[I] : nullptr);
      Seconds = secondsBetween(P0, Clock::now()) - Ps.CheckSeconds;
      Ps.CheckSeconds = 0;
      Clock::time_point W0 = Clock::now();
      for (size_t I : Order)
        verifyRace(Instances[I], *ReplayPrograms[I].B.Program, RandSeedBase,
                   CacheDir, /*Warm=*/true, Ps, nullptr);
      if (Timed)
        WarmSeconds.push_back(secondsBetween(W0, Clock::now()) -
                              Ps.CheckSeconds);
    } else {
      for (size_t I : Order)
        verifySeq(Instances[I], Ps, Rows[I]);
      Seconds = secondsBetween(P0, Clock::now()) - Ps.CheckSeconds;
      // The seq pipeline keeps no state between runs, so every pass after
      // the first is a warm re-verification of the same instances.
      if (PassNo > 0)
        WarmSeconds.push_back(Seconds);
    }
    if (!Timed)
      continue;
    PassSeconds.push_back(Seconds);
    (Traced ? TracedSeconds : UntracedSeconds).push_back(Seconds);
    finishPass(Ps.T);
    PassTallies.push_back(std::move(Ps.T));
  }
  Rec.setRecording(false);
  std::filesystem::remove_all(CacheDir, EC);

  std::printf("workload %s  seed %llu  passes %zu  race jobs %u\n", WL.Name,
              static_cast<unsigned long long>(Opt.Seed), PassSeconds.size(),
              WL.Race ? raceJobs() : 0u);
  std::printf("%-22s %-10s %10s %7s %7s %12s\n", "instance", "verdict",
              "median_ms", "rounds", "proof", "peak_visited");
  std::vector<double> AllMs, LogMedians;
  for (size_t I = 0; I < Instances.size(); ++I) {
    const InstanceRow &Row = Rows[I];
    double Med = median(Row.Ms);
    std::printf("%-22s %-10s %10.3f %7d %7zu %12lld\n",
                Instances[I].Name.c_str(), core::verdictName(Row.V).c_str(),
                Med, Row.Rounds, Row.ProofSize,
                static_cast<long long>(Row.PeakVisited));
    AllMs.insert(AllMs.end(), Row.Ms.begin(), Row.Ms.end());
    LogMedians.push_back(std::log(std::max(Med, 1e-6)));
  }
  std::printf("pass seconds:");
  for (double S : PassSeconds)
    std::printf(" %.4f", S);
  std::printf("\nwarm pass seconds:");
  for (double S : WarmSeconds)
    std::printf(" %.4f", S);
  std::printf("\nset-up seconds:");
  for (double S : SetupSeconds)
    std::printf(" %.4f", S);
  std::printf("\n");
  double FailedPct = 100 * ratio(static_cast<double>(O.Failed),
                                 static_cast<double>(O.Attempted));
  std::printf("runs attempted %llu, failed %llu (failed_pct %.3f)\n",
              static_cast<unsigned long long>(O.Attempted),
              static_cast<unsigned long long>(O.Failed), FailedPct);

  if (!Opt.Trace) {
    Tail T = tailPercentile(AllMs);
    Tally E;
    E["setup_s"] = median(SetupSeconds);
    E["pass_s"] = median(PassSeconds);
    E["warm_pass_s"] = median(WarmSeconds);
    E["verdict_ms_p50"] = median(AllMs);
    E["verdict_ms_tail"] = T.Value;
    E["verdict_ms_geomean"] =
        std::exp(std::accumulate(LogMedians.begin(), LogMedians.end(), 0.0) /
                 static_cast<double>(LogMedians.size()));
    E["solved_pct"] = 100 - FailedPct;
    E["peak_rss_mb"] = peakRssMb();
    std::printf("verdict_ms_tail is p%g of %zu samples (%zu beyond it)\n",
                T.Percentile, AllMs.size(), T.Beyond);
    for (const MetricDef &M : EndToEndMetrics)
      printMetric(M.Name, E[M.Name], M.Unit);
    printJson(O, EndToEndMetrics, std::size(EndToEndMetrics), E);
  } else {
    Tally L = medianTally(PassTallies);
    Tally S = medianTally(SetupTallies);
    for (const char *Name : {"frontend.build_s", "frontend.letters",
                             "analysis.prune_s", "analysis.edges_pruned",
                             "core.setup_s"})
      L[Name] = S[Name];
    L["trace.overhead_pct"] =
        100 * (ratio(median(TracedSeconds), median(UntracedSeconds)) - 1);
    L["trace.spans"] = static_cast<double>(Rec.size());
    std::string TracePath = Opt.OutDir + "/trace-" + WL.Name + ".json";
    char Header[256];
    std::snprintf(Header, sizeof(Header),
                  "\"workload\": \"%s\", \"seed\": %llu", WL.Name,
                  static_cast<unsigned long long>(Opt.Seed));
    if (!Rec.write(TracePath, Header))
      std::fprintf(stderr, "perfbench: cannot write %s\n", TracePath.c_str());
    std::printf("spans written to %s; self seconds by span:\n",
                TracePath.c_str());
    for (const auto &[Name, Self] : Rec.selfSecondsByName())
      std::printf("  %-18s %12.6f s\n", Name.c_str(), Self);
    for (const MetricDef &M : LayerMetrics)
      printMetric(M.Name, L[M.Name], M.Unit);
    printJson(O, LayerMetrics, std::size(LayerMetrics), L);
  }
  return O.Correct ? 0 : 1;
}
