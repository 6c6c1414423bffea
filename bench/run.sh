#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# benchmark (see main.go). This is the command BENCHMARK.json names.
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/: the Go build cache, the binary, and the temporary
# directory that holds dagd's data dirs, its logs and the span files.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/bin"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config   # go's telemetry counters
export GOTOOLCHAIN=local GOWORK=off

go build -C "$root/bench" -o "$build/bin/bench" .
exec "$build/bin/bench" -root "$root" "$@"
