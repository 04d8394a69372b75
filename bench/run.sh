#!/usr/bin/env bash
# run.sh ARGS... — the benchmark's command (see BENCHMARK.json).
#
# Builds the harness from the tree in the current directory, which must
# be the repository root, and hands it the arguments. Every file the
# build and the run leave behind — Go's build cache and temporary
# directory included — lands under .bench_build/ in that directory, so
# a run reads and writes only inside its checkout.
set -euo pipefail

build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
