#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload serve --seed 3 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory: the Go build cache, temporary files and the
# benchmark's scratch directory.
set -euo pipefail

build="$(pwd)/.bench_build"
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$bench_dir" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/run" "$@"
