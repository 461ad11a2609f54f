#!/usr/bin/env bash
# Builds artemis-bench from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/artemis-bench/run.sh -seed 1
#   bash cmd/artemis-bench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and traces go under .bench_build/ in the
# repository root, and the Go toolchain is kept offline and local.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" PPROF_TMPDIR="$build/pprof" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
go -C cmd/artemis-bench build -o "$build/artemis-bench" .
exec "$build/artemis-bench" "$@"
