#!/usr/bin/env sh
# Perf-regression gate: runs the bench_hotpath microbenchmark (generic
# sleep-set construction, program-reduction construction, and the verifier
# DFS over the tier-1 suites), writes BENCH_hotpath.json into the build
# directory, and compares the suite wall time (the median of the bench's
# three passes over the suite) against the checked-in baseline at the repo
# root. Fails when the measured wall time regresses
# by more than the tolerance (default 15%, override with
# SEQVER_PERF_TOLERANCE_PCT). A single retry absorbs scheduler noise
# before declaring a regression.
#
# Usage: tools/check_perf.sh [build-dir] [--update]
#   build-dir  defaults to ./build
#   --update   rewrite the repo-root baseline from this run and exit green
set -eu

TOOLS_DIR=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
REPO_DIR=$(dirname -- "$TOOLS_DIR")

BUILD_DIR=build
UPDATE=0
for arg in "$@"; do
  case "$arg" in
    --update) UPDATE=1 ;;
    *) BUILD_DIR=$arg ;;
  esac
done

BENCH="$BUILD_DIR/bench/bench_hotpath"
BASELINE="$REPO_DIR/BENCH_hotpath.json"
CURRENT="$BUILD_DIR/BENCH_hotpath.json"
FUSION_BENCH="$BUILD_DIR/bench/bench_fusion"
FUSION_BASELINE="$REPO_DIR/BENCH_fusion.json"
FUSION_CURRENT="$BUILD_DIR/BENCH_fusion.json"
COMMUT_BENCH="$BUILD_DIR/bench/bench_commut_oracle"
COMMUT_BASELINE="$REPO_DIR/BENCH_commut_oracle.json"
COMMUT_CURRENT="$BUILD_DIR/BENCH_commut_oracle.json"
INCR_BENCH="$BUILD_DIR/bench/bench_incremental"
INCR_BASELINE="$REPO_DIR/BENCH_incremental.json"
INCR_CURRENT="$BUILD_DIR/BENCH_incremental.json"
TOLERANCE="${SEQVER_PERF_TOLERANCE_PCT:-15}"

if [ ! -x "$BENCH" ]; then
  echo "error: $BENCH not built (cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR)" >&2
  exit 2
fi

# Extracts a numeric field from the flat one-field-per-line JSON that
# bench_hotpath writes (no python/jq dependency).
json_field() {
  awk -F': ' -v key="\"$2\"" '$1 ~ key { gsub(/[ ,]/, "", $2); print $2 }' \
    "$1"
}

run_bench() {
  "$BENCH" "$CURRENT" || {
    echo "error: bench_hotpath failed" >&2
    exit 2
  }
}

run_fusion_bench() {
  "$FUSION_BENCH" --benchmark_out="$FUSION_CURRENT" \
                  --benchmark_out_format=json >/dev/null || {
    echo "error: bench_fusion failed" >&2
    exit 2
  }
}

run_commut_bench() {
  "$COMMUT_BENCH" "$COMMUT_CURRENT" >/dev/null || {
    echo "error: bench_commut_oracle failed" >&2
    exit 2
  }
}

run_incr_bench() {
  "$INCR_BENCH" "$INCR_CURRENT" >/dev/null || {
    echo "error: bench_incremental failed" >&2
    exit 2
  }
}

run_bench

if [ "$UPDATE" = 1 ]; then
  cp "$CURRENT" "$BASELINE"
  echo "baseline updated: $BASELINE"
  if [ -x "$FUSION_BENCH" ]; then
    run_fusion_bench
    cp "$FUSION_CURRENT" "$FUSION_BASELINE"
    echo "baseline updated: $FUSION_BASELINE"
  fi
  if [ -x "$COMMUT_BENCH" ]; then
    run_commut_bench
    cp "$COMMUT_CURRENT" "$COMMUT_BASELINE"
    echo "baseline updated: $COMMUT_BASELINE"
  fi
  if [ -x "$INCR_BENCH" ]; then
    run_incr_bench
    cp "$INCR_CURRENT" "$INCR_BASELINE"
    echo "baseline updated: $INCR_BASELINE"
  fi
  exit 0
fi

if [ ! -f "$BASELINE" ]; then
  echo "error: no baseline at $BASELINE (run tools/check_perf.sh --update)" >&2
  exit 2
fi

check_wall() {
  BASE_WALL=$(json_field "$BASELINE" suite_wall_s)
  CURR_WALL=$(json_field "$CURRENT" suite_wall_s)
  if [ -z "$BASE_WALL" ] || [ -z "$CURR_WALL" ]; then
    echo "error: suite_wall_s missing from baseline or current JSON" >&2
    exit 2
  fi
  awk -v base="$BASE_WALL" -v curr="$CURR_WALL" -v tol="$TOLERANCE" '
    BEGIN {
      limit = base * (1 + tol / 100)
      pct = base > 0 ? 100 * (curr - base) / base : 0
      printf "suite wall time: baseline=%.2fs current=%.2fs (%+.1f%%, tolerance %s%%)\n", \
             base, curr, pct, tol
      exit curr > limit ? 1 : 0
    }'
}

if check_wall; then
  :
else
  echo "over tolerance; retrying once to rule out scheduler noise..."
  run_bench
  if ! check_wall; then
    echo "FAIL: suite wall time regressed beyond ${TOLERANCE}% of baseline" >&2
    exit 1
  fi
fi

# Fusion gate: the fused DFS state count over the tier-1 suites is
# deterministic (seq order), so it must not grow beyond tolerance of the
# BENCH_fusion.json baseline, and the loop-heavy and affine suites must
# keep a strict fused-vs-unfused reduction.
if [ -x "$FUSION_BENCH" ] && [ -f "$FUSION_BASELINE" ]; then
  run_fusion_bench
  BASE_FUSED=$(json_field "$FUSION_BASELINE" visited_fused_total)
  CURR_FUSED=$(json_field "$FUSION_CURRENT" visited_fused_total)
  CURR_UNFUSED=$(json_field "$FUSION_CURRENT" visited_unfused_total)
  if [ -z "$BASE_FUSED" ] || [ -z "$CURR_FUSED" ]; then
    echo "error: visited_fused_total missing from fusion baseline or current JSON" >&2
    exit 2
  fi
  awk -v base="$BASE_FUSED" -v curr="$CURR_FUSED" -v unfused="$CURR_UNFUSED" \
      -v tol="$TOLERANCE" '
    BEGIN {
      limit = base * (1 + tol / 100)
      pct = base > 0 ? 100 * (curr - base) / base : 0
      printf "fused DFS states: baseline=%d current=%d (%+.1f%%, tolerance %s%%; unfused=%d)\n", \
             base, curr, pct, tol, unfused
      exit curr > limit ? 1 : 0
    }' || {
    echo "FAIL: fused DFS state count regressed beyond ${TOLERANCE}% of baseline" >&2
    exit 1
  }
  for SUITE in loop_heavy affine; do
    S_FUSED=$(json_field "$FUSION_CURRENT" "visited_fused_$SUITE")
    S_UNFUSED=$(json_field "$FUSION_CURRENT" "visited_unfused_$SUITE")
    awk -v f="$S_FUSED" -v u="$S_UNFUSED" -v s="$SUITE" '
      BEGIN {
        printf "fusion %s: %d unfused vs %d fused\n", s, u, f
        exit (f < u) ? 0 : 1
      }' || {
      echo "FAIL: fusion no longer strictly shrinks the $SUITE suite" >&2
      exit 1
    }
  done
fi

# Commutativity-oracle gate: the shared and persisted-warm arms of
# bench_commut_oracle must keep their semantic-query savings. The counts
# are race-timing dependent, so the gate checks drop *floors* (shared
# >= 30%, persisted-warm >= 70% — a safety margin under the 40%/80% the
# checked-in baseline demonstrates) plus a generous ceiling on the shared
# arm's absolute query count against the baseline, with one retry for
# scheduler noise. Verdict agreement is seqver --check=commut's job; here
# only the savings are gated.
if [ -x "$COMMUT_BENCH" ] && [ -f "$COMMUT_BASELINE" ]; then
  COMMUT_TOL="${SEQVER_COMMUT_TOLERANCE_PCT:-50}"
  check_commut() {
    BASE_SEM=$(json_field "$COMMUT_BASELINE" commut_semantic_shared)
    CURR_SEM=$(json_field "$COMMUT_CURRENT" commut_semantic_shared)
    SHARED_DROP=$(json_field "$COMMUT_CURRENT" shared_drop_pct)
    WARM_DROP=$(json_field "$COMMUT_CURRENT" warm_drop_pct)
    if [ -z "$BASE_SEM" ] || [ -z "$CURR_SEM" ] || [ -z "$SHARED_DROP" ] \
       || [ -z "$WARM_DROP" ]; then
      echo "error: commut oracle fields missing from baseline or current JSON" >&2
      exit 2
    fi
    awk -v base="$BASE_SEM" -v curr="$CURR_SEM" -v shared="$SHARED_DROP" \
        -v warm="$WARM_DROP" -v tol="$COMMUT_TOL" '
      BEGIN {
        limit = base * (1 + tol / 100)
        printf "commut oracle: shared arm %d semantic queries (baseline %d, tolerance %s%%), drops shared=%.1f%% warm=%.1f%%\n", \
               curr, base, tol, shared, warm
        exit (curr <= limit && shared >= 30 && warm >= 70) ? 0 : 1
      }'
  }
  run_commut_bench
  if check_commut; then
    :
  else
    echo "commut gate failed; retrying once to rule out race-timing noise..."
    run_commut_bench
    if ! check_commut; then
      echo "FAIL: shared commutativity oracle lost its semantic-query savings" >&2
      exit 1
    fi
  fi
fi

# Incremental-session gate: bench_incremental's solver wall-second savings
# (incremental sessions vs one throwaway solver per query) must stay at or
# above the floor — default 30%, override with SEQVER_INCR_MIN_SAVINGS_PCT —
# a safety margin under the ~70% the checked-in baseline demonstrates. One
# retry absorbs scheduler noise; verdict agreement between the arms is
# enforced by the bench itself (and seqver --check=incremental).
if [ -x "$INCR_BENCH" ] && [ -f "$INCR_BASELINE" ]; then
  INCR_FLOOR="${SEQVER_INCR_MIN_SAVINGS_PCT:-30}"
  check_incr() {
    SAVINGS=$(json_field "$INCR_CURRENT" incremental_savings_pct)
    SESSIONS=$(json_field "$INCR_CURRENT" smt_sessions)
    BASE_SAVINGS=$(json_field "$INCR_BASELINE" incremental_savings_pct)
    if [ -z "$SAVINGS" ] || [ -z "$SESSIONS" ] || [ -z "$BASE_SAVINGS" ]; then
      echo "error: incremental fields missing from baseline or current JSON" >&2
      exit 2
    fi
    awk -v sav="$SAVINGS" -v base="$BASE_SAVINGS" -v sess="$SESSIONS" \
        -v floor="$INCR_FLOOR" '
      BEGIN {
        printf "incremental sessions: %.1f%% solver wall saved (baseline %.1f%%, floor %s%%), %d sessions\n", \
               sav, base, floor, sess
        exit (sav >= floor && sess > 0) ? 0 : 1
      }'
  }
  run_incr_bench
  if check_incr; then
    :
  else
    echo "incremental gate failed; retrying once to rule out scheduler noise..."
    run_incr_bench
    if ! check_incr; then
      echo "FAIL: incremental SMT sessions lost their solver wall-second savings" >&2
      exit 1
    fi
  fi
fi

echo "OK: no perf regression beyond ${TOLERANCE}%"
