#!/usr/bin/env bash
# Records the perf baseline: builds the harness in release mode and runs
# the `bench_record` binary, which sweeps the slow-path grid of the
# one KP queue ({base, opt(1+2)} x {reuse, alloc} x {pairs, 50-50}),
# the fast-path ablation cells (wf-fast vs wf opt_both), and the reaper
# ablation (opt_both+reap vs opt_both, plus an abandoned-handle
# reap-latency probe), the three-way engine shootout (wCQ vs the KP
# slow and fast paths, plus the stalled-reader residency probe), and
# the channel shard x batch sweep with its open-loop p50/p99/p999
# latency pass,
# writing throughput, allocs/op, fallback rates, reap/quarantine
# counts, and latency columns — plus the overload ablation (parked
# bounded send vs a bench-local spin-send, and the KP admission gate
# on vs off on backpressured cells) — to BENCH_PR8.json at the root.
# Scale knobs:
#   ITERS    iterations per thread per rep   (default: 50000)
#   REPS     reps per cell (median reported) (default: 5)
#   OUT      output path                     (default: BENCH_PR8.json)
set -euo pipefail
cd "$(dirname "$0")/.."

ITERS="${ITERS:-50000}"
REPS="${REPS:-5}"
OUT="${OUT:-BENCH_PR8.json}"

cargo build -p harness --release --bin bench_record
cargo run -p harness --release -q --bin bench_record -- \
    --iters "$ITERS" --reps "$REPS" --out "$OUT"

echo "recorded -> $OUT"
