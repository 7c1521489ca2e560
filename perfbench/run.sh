#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload extract-dense --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory (Go build cache included); daemon state directories are removed
# when the run ends, traced runs leave their spans in .bench_build/traces/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= \
  GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -src "$here" -work "$build/work" -traces "$build/traces" "$@"
