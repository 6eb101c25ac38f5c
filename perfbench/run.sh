#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fig2-paper --seed 42 --seconds 30 --trace 0
#
# Build outputs (the Go build cache, the go command's telemetry counters
# and the binary) stay inside the checkout, under .bench_build/. The
# benchmark writes its result records and span dumps under .bench_out/.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
