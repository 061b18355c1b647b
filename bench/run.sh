#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of the checkout:
#
#	bash bench/run.sh --workload word_txn --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go's build cache included), so a run touches nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off

# bench/ is its own module that replaces `repro` with the checkout around it,
# so this compiles the repository's packages as they are in this checkout.
go build -C "$root/bench" -o "$build/bench" .

cd "$root"
exec "$build/bench" "$@"
