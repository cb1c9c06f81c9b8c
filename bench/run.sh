#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it. Run it from the
# repository root; every flag is passed through:
#
#   bash bench/run.sh --workload fig6-gups --seed 1 --seconds 18 --trace 0
#   bash bench/run.sh -o run.json            # all four workloads
#
# The binary, the Go build cache and the Go tool's own state all live under
# .bench_build/, so a run writes nothing outside the checkout.
set -euo pipefail

mkdir -p .bench_build
out="$(cd .bench_build && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
(cd bench && go build -o "$out/mosaicbench" .)
exec "$out/mosaicbench" "$@"
