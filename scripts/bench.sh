#!/bin/sh
# bench.sh — benchmark the instrumented hot paths and record the numbers
# as schema-versioned JSON so regressions diff mechanically:
#
#   scripts/bench.sh                 # writes BENCH_obs.json at the repo root
#   BENCHTIME=2s scripts/bench.sh    # longer, steadier runs
#
# The suite covers the per-reference simulator path with observability
# off and on (internal/memsim BenchmarkAccess*), the sampler tick itself
# (internal/obs BenchmarkSampler*), and the publication layer — snapshot
# cost per window (BenchmarkPublisherSnapshot) and Prometheus encode cost
# per scrape (BenchmarkPromEncode). Compare two runs with
# `go run ./cmd/mosaicstat bench BENCH_obs.json`.
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_obs.json}"

go test -run '^$' -bench 'BenchmarkAccess|BenchmarkSampler|BenchmarkPublisherSnapshot|BenchmarkPromEncode' \
	-benchmem -benchtime "${BENCHTIME:-1s}" ./internal/memsim ./internal/obs |
	tee /dev/stderr |
	go run ./cmd/mosaicstat bench -parse -o "$out"

# Sweep-engine wall clock: the same fig6 sweep at workers=1 vs workers=4
# (bit-identical results; the ns/op ratio is the parallel speedup — ≥2×
# expected on a 4-core machine), plus raw generator throughput
# (GenerateGUPSBatch, Mrefs/s), the v2 trace frame decoder, and the
# dispatch-only RunBatch harness (cheapest producer into a counting sink:
# harness cost, not simulator speed).
go test -run '^$' -bench 'BenchmarkFigure6(Sequential|Parallel)|BenchmarkRunBatch|BenchmarkBatchDecode|BenchmarkGenerateGUPSBatch' \
	-benchmem -benchtime "${BENCHTIME:-1s}" . |
	tee /dev/stderr |
	go run ./cmd/mosaicstat bench -parse -o BENCH_parallel.json

# Lint cost: a full mosaiclint load-and-analyze pass over the module.
# Recorded so new analyzers pay for their wall clock visibly — diff with
# `go run ./cmd/mosaicstat bench BENCH_lint.json`.
go test -run '^$' -bench 'BenchmarkMosaiclintTree' -benchmem \
	-benchtime "${BENCHTIME:-1s}" ./internal/lint |
	tee /dev/stderr |
	go run ./cmd/mosaicstat bench -parse -o BENCH_lint.json
