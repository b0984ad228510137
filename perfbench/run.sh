#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload huge-fleet --seed 1 --seconds 10 --trace 0
# Run it from the repository root. The build cache and the binary stay
# under .bench_build/ in that directory; trace output goes to .bench_out/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
