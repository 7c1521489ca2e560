#!/bin/sh
# bench.sh — run the benchmark suite and record it into the BENCH_<date>.json
# trajectory (see cmd/benchjson for the file format).
#
# Usage:
#   scripts/bench.sh [label]          full run (paper figures + mat kernels)
#   BENCH_SMOKE=1 scripts/bench.sh    quick 2-iteration pass for CI, gated
#                                     against the committed trajectory
#                                     (BENCH_BASELINE=file[:label]); a
#                                     benchmark that trips the gate is re-run
#                                     up to twice and fails only if its
#                                     fastest re-run still trips
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
bench() {
    go test -run '^$' -bench "$1" -benchmem -benchtime "$benchtime" . ./internal/mat/
}

if [ -z "${BENCH_BASELINE:-}" ]; then
    bench . | go run ./cmd/benchjson -label "$label" -out "$out" -append
    echo "recorded run '$label' in $out"
    exit 0
fi

# Gated run. On a shared host one short run can read 2x slow from noise
# alone, so a benchmark that trips the gate is re-run, up to twice more, and
# fails only if its fastest re-run still trips. Only the first run is
# recorded in the trajectory.
tripped=$(mktemp)
reruns=$(mktemp)
trap 'rm -f "$tripped" "$reruns"' EXIT
status=0
bench . | go run ./cmd/benchjson -label "$label" -out "$out" -append \
    -baseline "$BENCH_BASELINE" -tripped "$tripped" || status=$?
echo "recorded run '$label' in $out"
for attempt in 1 2; do
    if [ "$status" -ne 1 ] || [ ! -s "$tripped" ]; then
        break
    fi
    names=$(paste -sd '|' "$tripped")
    echo "re-running the benchmarks that tripped the gate ($attempt of 2): $names"
    bench "^Benchmark($names)\$" | tee -a "$reruns"
    status=0
    go run ./cmd/benchjson -baseline "$BENCH_BASELINE" -tripped "$tripped" \
        < "$reruns" > /dev/null || status=$?
done
exit "$status"
