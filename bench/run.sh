#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument goes to the program. Run from the repository root:
#
#   bash bench/run.sh --workload mem_healthy --seed 1 --seconds 24 --trace 0
#
# Everything the Go toolchain writes (build cache, binary) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench: run from the repository root (go.mod and bench/go.mod not found under $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/hoursbench" .
exec "$build/hoursbench" "$@"
