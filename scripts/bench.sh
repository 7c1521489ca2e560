#!/bin/sh
# bench.sh — run the benchmark suite and record it into the BENCH_<date>.json
# trajectory (see cmd/benchjson for the file format).
#
# Usage:
#   scripts/bench.sh [label]          full run (paper figures + mat kernels)
#   BENCH_SMOKE=1 scripts/bench.sh    quick 2-iteration pass for CI, gated
#                                     against the committed trajectory
#
# The trajectory file is BENCH_<utc-date>.json in the repo root; successive
# runs on the same day append to it, so a before/after pair of a performance
# change lands in one file.
set -eu

cd "$(dirname "$0")/.."

label="${1:-local}"
out="BENCH_$(date -u +%F).json"

# With -benchtime Nx, N >= 2, Go first calls each benchmark once with b.N = 1
# and discards it, then reports the timed N-iteration run. At 1x the cold
# first call is the reported one, so the smoke pass times 2 iterations after
# the same warm-up its 3x baseline had.
if [ "${BENCH_SMOKE:-0}" = "1" ]; then
    benchtime=2x
    label="${1:-smoke}"
else
    benchtime=3x
fi

# Paper-figure end-to-end benchmarks (repo root) + dense-kernel
# micro-benchmarks (internal/mat). -run '^$' skips tests.
go test -run '^$' -bench . -benchmem -benchtime "$benchtime" . ./internal/mat/ |
    go run ./cmd/benchjson -label "$label" -out "$out" -append ${BENCH_BASELINE:+-baseline "$BENCH_BASELINE"}

echo "recorded run '$label' in $out"
