#!/usr/bin/env bash
# Entry point of the benchmark (the "command" of BENCHMARK.json): builds
# scpbench from source inside the checkout and runs it with the given
# arguments. Everything Go writes — build cache, temporary files, the
# binaries — stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp .bench_build/bin
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -C bench -buildvcs=false -o "$root/.bench_build/bin/scpbench" ./cmd/scpbench
exec "$root/.bench_build/bin/scpbench" "$@"
