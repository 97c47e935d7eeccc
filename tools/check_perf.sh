#!/usr/bin/env sh
# Perf-regression gate: runs the bench_hotpath microbenchmark (generic
# sleep-set construction, program-reduction construction, and the verifier
# DFS over the tier-1 suites), writes BENCH_hotpath.json into the build
# directory, and compares the suite CPU time (suite_cpu_s: user + sys of
# the process, the median of the bench's five passes over the suite)
# against the checked-in baseline at the repo root. Fails when the measured
# CPU time regresses by more than the tolerance (default 15%, override with
# SEQVER_PERF_TOLERANCE_PCT). A single retry absorbs scheduler noise
# before declaring a regression. The suite wall time (suite_wall_s) is
# printed beside it, ungated. The counter gates of the other layers
# (fusion, incremental solving, the proof cache, the invariant tiers and
# the commutativity oracle) are relations of their seqver --check axes
# (docs/CHECKS.md).
#
# Usage: tools/check_perf.sh [build-dir] [--update]
#   build-dir  defaults to ./build
#   --update   rewrite BENCH_hotpath.json at the repo root from this run
#              and exit green
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

run_bench

if [ "$UPDATE" = 1 ]; then
  cp "$CURRENT" "$BASELINE"
  echo "baseline updated: $BASELINE"
  exit 0
fi

if [ ! -f "$BASELINE" ]; then
  echo "error: no baseline at $BASELINE (run tools/check_perf.sh --update)" >&2
  exit 2
fi

check_cpu() {
  BASE_CPU=$(json_field "$BASELINE" suite_cpu_s)
  CURR_CPU=$(json_field "$CURRENT" suite_cpu_s)
  if [ -z "$BASE_CPU" ] || [ -z "$CURR_CPU" ]; then
    echo "error: suite_cpu_s missing from baseline or current JSON" >&2
    exit 2
  fi
  printf 'suite wall time: baseline=%ss current=%ss (not gated)\n' \
    "$(json_field "$BASELINE" suite_wall_s)" \
    "$(json_field "$CURRENT" suite_wall_s)"
  awk -v base="$BASE_CPU" -v curr="$CURR_CPU" -v tol="$TOLERANCE" '
    BEGIN {
      limit = base * (1 + tol / 100)
      pct = base > 0 ? 100 * (curr - base) / base : 0
      printf "suite CPU time: baseline=%.2fs current=%.2fs (%+.1f%%, tolerance %s%%)\n", \
             base, curr, pct, tol
      exit curr > limit ? 1 : 0
    }'
}

if check_cpu; then
  :
else
  echo "over tolerance; retrying once to rule out scheduler noise..."
  run_bench
  if ! check_cpu; then
    echo "FAIL: suite CPU time regressed beyond ${TOLERANCE}% of baseline" >&2
    exit 1
  fi
fi

echo "OK: no perf regression beyond ${TOLERANCE}%"
