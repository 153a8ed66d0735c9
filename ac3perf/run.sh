#!/usr/bin/env bash
# Builds the ac3perf benchmark from source and runs it from the root of
# the checkout. Build output and the Go build cache stay in .bench_build/
# at the checkout root, so nothing is read or written outside it apart
# from the Go toolchain itself.
#
# Usage: bash ac3perf/run.sh --workload ac3wn --seed 42 --seconds 25 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/ac3perf" .)
cd "$root"
exec "$build/ac3perf" "$@"
