#!/usr/bin/env bash
# Chaos torture sweep: runs the fault-injection test suite and the
# seed-matrix torture driver (deterministic crash/stall plans against
# the wait-free queue), then proves the chaos feature is zero-cost when
# disabled. Exits non-zero on any lost value, unreclaimable slot,
# unplanned death, or wait-freedom watchdog violation. Scale knobs:
#   SEEDS    comma-separated seed matrix (default: the fixed CI matrix)
#   THREADS  threads per torture round          (default: 4)
#   OPS      enqueues per producer per round    (default: 20000)
#   STALLS   seeded stall rules per plan        (default: 12)
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${SEEDS:-1,7,42,1337,24181}"
THREADS="${THREADS:-4}"
OPS="${OPS:-20000}"
STALLS="${STALLS:-12}"

echo "=== chaos test suite (workspace, --features chaos) ==="
cargo test --features chaos --release -q

echo "=== seed-matrix torture driver (seeds: $SEEDS) ==="
cargo run --release --features chaos -p harness --bin torture -- \
  --seeds "$SEEDS" --threads "$THREADS" --ops "$OPS" --stalls "$STALLS"

echo "=== zero-cost check: default build must not link chaos ==="
if cargo tree -p kp-queue --edges normal | grep -q '^.*\bchaos\b'; then
  echo "FAIL: kp-queue depends on chaos without the feature" >&2
  exit 1
fi
if cargo tree -p hazard --edges normal | grep -q '\bchaos\b' ||
   cargo tree -p idpool --edges normal | grep -q '\bchaos\b'; then
  echo "FAIL: hazard/idpool depend on chaos without the feature" >&2
  exit 1
fi
echo "ok: chaos absent from default dependency graph"

echo "torture.sh: all checks passed"
