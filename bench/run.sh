#!/usr/bin/env bash
# run.sh — the benchmark's one command (BENCHMARK.json "command").
#
#   bash bench/run.sh                                  whole suite
#   bash bench/run.sh --workload warm_read --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -repeat 5 | -validate
#
# Builds the harness (this directory is its own Go module importing the
# repo's packages through a replace directive) and hands over to it; the
# harness builds xvserve from the tree. Everything the build writes stays in
# the checkout: binaries and the Go build cache go to .bench_build/, so the
# first run in a fresh checkout compiles from scratch (~20 s on two cores).
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
