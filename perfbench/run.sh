#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-hot --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, the span files and
# the run log.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
