#!/bin/sh
# check.sh — the repository's full verification gate: build, vet, the
# repo-specific mosaiclint analyzers, the test suite under the race
# detector, short fuzz smokes, regeneration of the committed result
# tables, and an end-to-end smoke of the results-file path.
# CI and pre-commit hooks should run exactly this.
set -eux

cd "$(dirname "$0")/.."

go build ./...
# Formatting gate: every Go file, lint fixtures included, is gofmt-clean.
test -z "$(gofmt -l .)"
go vet ./...
# The per-package mosaiclint analyzers (ML000–ML005, ML013). Determinism
# across worker counts, goroutine lifetimes and the allocation-free miss
# path are properties of running code, so the test suite below checks them
# directly (TestParallelMatchesSequential, the TestNoGoroutineOutlives*
# tests, TestHotPathZeroAllocs).
go run ./cmd/mosaiclint ./...
# The sweep engine and the progress line are the only concurrency in the
# repo; hammer them under the race detector first so an engine race fails
# fast, then run the whole suite. Race runs get explicit timeouts: a
# deadlocked worker pool should fail the gate in minutes, not hang CI
# until the default 10-minute per-package limit compounds across packages.
go test -race -timeout 120s ./internal/sweep/... ./internal/obs/...
# The root package (the experiment drivers) is the slowest under the race
# detector: 124 s to 159 s on its own on a 2-vCPU x86-64 VM, so it gets
# its own line with about twice the slowest. Every other package keeps
# 300 s.
go test -race -timeout 320s .
go test -race -timeout 300s $(go list ./... | grep -vx mosaic)
# The VM's dense page records against a map oracle: faults, evictions,
# unmaps, forks and shared mappings around chunk and directory edges.
go test -run='^$' -fuzz=FuzzPageRecords -fuzztime=3s ./internal/vm
# The iceberg allocator against a map oracle: stable frames, CPFNs that
# decode back, conflicts only when every candidate is live.
go test -run='^$' -fuzz=FuzzMemoryPlaceFree -fuzztime=3s ./internal/alloc
go test -run='^$' -fuzz=FuzzBatchEncodeDecode -fuzztime=3s ./internal/trace
# The TLB sets (scanned and index-probed) against a naive MRU-list model.
go test -run='^$' -fuzz=FuzzTLBOracle -fuzztime=3s ./internal/tlb
# The wide sets' open-addressed index against a Go map, with keys piled
# into one probe cluster across the index's wrap-around.
go test -run='^$' -fuzz=FuzzTableIndex -fuzztime=3s ./internal/tlb
# The cache hierarchy against a naive per-set LRU write-back model.
go test -run='^$' -fuzz=FuzzCacheOracle -fuzztime=3s ./internal/cache
# The rank-addressed B+ tree against the pointer-tree reference model: the
# same reference stream and footprint at any key count, lookup count and
# budget.
go test -run='^$' -fuzz=FuzzBTreeStream -fuzztime=3s ./internal/workloads
# Figure 6 driver options: duplicate, invalid and tiny TLB lists, frame
# counts that evict, sampling cadences and worker counts either finish or
# return an error, never panic.
go test -run='^$' -fuzz=FuzzFigure6Options -fuzztime=3s .
# Table4Options: unknown workloads, tiny and negative pools, bad
# footprint fractions, run and worker counts either finish or return an
# error, never panic.
go test -run='^$' -fuzz=FuzzTable4Options -fuzztime=3s .
# Table3Options and IcebergDeltaOptions: unknown workloads, tiny, zero and
# negative pools and slot counts, bad footprint fractions and geometries,
# run, trial and worker counts either finish or return an error, never
# panic.
go test -run='^$' -fuzz=FuzzTable3Options -fuzztime=3s .
go test -run='^$' -fuzz=FuzzIcebergDeltaOptions -fuzztime=3s .
# Nothing records the go-test benchmarks (bench/ is the repository
# benchmark), so run each once to keep them compiling and passing.
go test -run='^$' -bench=. -benchtime=1x ./...
# Batch-boundary gate: replaying one captured stream into the simulator at
# any batching — single references, odd sizes around DefaultBatchSize, the
# whole stream at once, sampler off and on, and the multiprogram
# quantum-sliced replay — must produce a byte-identical results file
# (counters, series, event ref-indices) to the default-size replay. The
# sampled replay evicts throughout and cuts segments at window and
# invariant-audit edges that fall mid-batch. The memsim cases fault pages
# into ToCs and CoLT groups already filled in the same segment; they too
# must match the one-reference-per-batch order. So must the repeat fast
# path, which counts a reference to its predecessor's page as a hit
# without a TLB lookup.
go test -run 'TestBatchBoundaryInvariance|TestSegmentsExactUnderEviction|TestSegmentsExactUnderFaults|TestRepeatsExact' -count=1 . ./internal/memsim
# Committed results gate: all eight result tables, fig6 and table4
# included, must regenerate byte for byte at their defaults.
scripts/regen.sh

# Smoke-test the machine-readable results path: a tiny fig6 run must
# produce JSON that parses and carries the current schema version
# (results.Read rejects anything else), and mosaicstat must render it.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/fig6 -workload gups -footprint 8 -maxrefs 200000 \
	-sample 50000 -o "$tmp/fig6-smoke.json" >/dev/null
go run ./cmd/mosaicstat show "$tmp/fig6-smoke.json" >/dev/null
go run ./cmd/mosaicstat diff "$tmp/fig6-smoke.json" "$tmp/fig6-smoke.json" >/dev/null
