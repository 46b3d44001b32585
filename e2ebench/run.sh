#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs one workload:
#
#   bash e2ebench/run.sh --workload boot|read|churn --seed N --seconds S --trace 0|1
#
# The binary, Go's build cache and the span files of traced runs all
# live under .bench_build/ at the root of the checkout. The last line
# of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/modcache GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" -out "$out" "$@"
