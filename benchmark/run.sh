#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload sim-paper --seed 1 --seconds 8 --trace 0
#
# Everything the build writes stays inside the checkout, under
# .bench_build: the Go build cache, the (empty) module cache, the
# toolchain's telemetry counters and the binary. Nothing is downloaded.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
