#!/usr/bin/env bash
# Builds the routinglens benchmark from this checkout and runs it:
#
#   bash rlbench/run.sh --workload net5-reload --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root. Build output goes to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/rlbench" && go build -o "$out/rlbench" .) >&2
cd "$root"
exec "$out/rlbench" "$@"
