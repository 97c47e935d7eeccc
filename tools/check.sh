#!/usr/bin/env sh
# CLI probes for seqver: what the arm matrix (seqver --check=<axis>,
# docs/CHECKS.md) cannot see through the library API.
# Usage: tools/check.sh [build-dir]   (default ./build)
set -eu

SEQVER="${1:-build}/tools/seqver"
[ -x "$SEQVER" ] || { echo "error: $SEQVER not built" >&2; exit 2; }
TMP=$(mktemp -d /tmp/seqver_probe.XXXXXX)
trap 'rm -rf "$TMP"' EXIT
fail() { echo "error: $*" >&2; exit 1; }
# nonzero COUNTER LINE: LINE has COUNTER=<value> with a nonzero value.
nonzero() { case "$2" in *" $1="[1-9]*) return 0 ;; *) return 1 ;; esac; }

# An affine counting loop: its invariant total == 2*i lies outside the
# octagon domain, so only the Karr tier settles it statically.
PROBE="$TMP/affine.conc"
cat > "$PROBE" <<'EOF'
var int i := 0;
var int total := 0;
thread worker {
  while (i < 5) {
    total := total + 2;
    i := i + 1;
  }
}
thread checker { assert total <= 10; }
EOF

# 1. Malformed options, the removed predicate-source and commutativity-store
# flags included, exit 2 with the usage text (arguments word-split on
# purpose); well-formed numbers still parse.
for args in "--order=bogus" "--order=rand(1) --rand-seed=5" \
            "--timeout=abc" "--timeout=-1" "--timeout=inf" "--jobs=-1" \
            "--jobs=2x" "--rand-seed=garbage" "--simulate=12abc" \
            "--simulate=" "--check=bogus" "--check=tiers,slow" \
            "--portfolio=parallel" "--source=interp" \
            "--commut-cache=persist" "--commut-cache=off"; do
  status=0
  # shellcheck disable=SC2086
  OUT=$("$SEQVER" $args "$PROBE" 2>&1) || status=$?
  [ "$status" -eq 2 ] || fail "seqver $args: exit $status, expected 2"
  case "$OUT" in *"usage: seqver"*) ;; *) fail "seqver $args: no usage text" ;; esac
done
"$SEQVER" --order="rand(8)" --rand-seed=7 --timeout=1.5 --jobs=2 \
          --simulate=3 "$PROBE" > /dev/null || fail "valid numbers rejected"
echo "input validation: ok"

# The tiers axis's rand arms name rand(1), which exists under any
# --rand-seed only because the axis pins their seed.
"$SEQVER" --check=tiers,quick --rand-seed=1 > /dev/null \
  || fail "seqver --check=tiers,quick --rand-seed=1 failed"
echo "tiers under --rand-seed: ok"

# 2. The per-worker commut_karr survives the hub merge. The winner may
# settle before it consults the affine tier, so read the merged totals.
MERGED=$("$SEQVER" --stats "$PROBE" | grep '^merged stats:' || true)
nonzero commut_karr "$MERGED" || fail "commut_karr not merged: ${MERGED:-<missing>}"
echo "karr-merge probe: ok"

# 3. The proof cache through --cache-dir/--cache-stats, as a user drives it.
for run in cold warm; do
  WARM=$("$SEQVER" --order=seq --cache-dir="$TMP/proofs" --cache-stats "$PROBE" \
           | grep '^cache:' || true)
done
case "$WARM" in
  "cache: 1 hit(s), 0 miss(es), 0 seeded"*) fail "warm hit seeded nothing: $WARM" ;;
  "cache: 1 hit(s), 0 miss(es), "*) echo "cache-dir probe: ok (${WARM#cache: })" ;;
  *) fail "warm --cache-dir run reported no hit: ${WARM:-<missing>}" ;;
esac

# 4. A default (portfolio) cold run on an empty --cache-dir stores its proof
# and counts the store.
COLD=$("$SEQVER" --cache-dir="$TMP/portfolio" --cache-stats "$PROBE" | grep '^cache:' || true)
case "$COLD" in
  *", "[1-9]*" store(s)") echo "portfolio cache-store probe: ok (${COLD#cache: })" ;;
  *) fail "cold portfolio run counted no store: ${COLD:-<missing>}" ;;
esac
