#!/usr/bin/env bash
# Builds the benchmark and cmd/mqpd from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash mqpbench/run.sh --workload tcp-chain --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the two binaries, the mqpd stderr logs and
# the span files of traced runs.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/bin" "$work/config"
export GOCACHE="$work/gocache"
export GOPATH="$work/gopath"
export GOTMPDIR="$work"
export GOTOOLCHAIN=local
# Keeps the go command's own state (telemetry, env file) inside the checkout.
export XDG_CONFIG_HOME="$work/config"

go -C mqpbench build -o "$work/bin/mqpbench" .
go build -o "$work/bin/mqpd" ./cmd/mqpd
exec "$work/bin/mqpbench" -mqpd "$work/bin/mqpd" -work "$work" "$@"
