#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload nobench-read --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
