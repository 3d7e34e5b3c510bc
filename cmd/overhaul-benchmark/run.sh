#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash cmd/overhaul-benchmark/run.sh --workload desk-grant --seed 1 --seconds 15 --trace 0
#
# Everything it writes stays under .bench_build/ in the current
# directory: the Go build cache, the binary, and the audit stores the
# fleet workloads create (removed when the run ends).
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$src" && go build -o "$out/overhaul-benchmark" .)
exec "$out/overhaul-benchmark" -workdir "$out/work" "$@"
