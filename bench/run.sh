#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (binary and Go build
# cache both stay inside the checkout), then runs it with the arguments
# given, e.g.:
#
#   bash bench/run.sh --workload batch-scan --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.
set -euo pipefail
build=.bench_build
mkdir -p "$build"
export GOCACHE="$PWD/$build/gocache" GOTOOLCHAIN=local
go build -buildvcs=false -o "$build/bench" ./bench
exec "$build/bench" "$@"
