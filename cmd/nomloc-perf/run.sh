#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/nomloc-perf/run.sh --workload burst --seed 1 --seconds 36 --trace 0
#
# The binary, the Go build cache, the go command's telemetry counters and
# the journals the benchmark writes all stay under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

(cd cmd/nomloc-perf && go build -o "$build/bin/nomloc-perf" .)
exec "$build/bin/nomloc-perf" "$@"
