#!/bin/sh
# check.sh — the repository's full verification gate: build, vet, the
# repo-specific mosaiclint analyzers, the test suite under the race
# detector, short fuzz smokes, regeneration of the committed result
# tables, and end-to-end smokes of the results and live-telemetry paths.
# CI and pre-commit hooks should run exactly this.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The per-package mosaiclint analyzers (ML000–ML005, ML013). Determinism
# across worker counts, goroutine lifetimes and the allocation-free miss
# path are properties of running code, so the test suite below checks them
# directly (TestParallelMatchesSequential, the TestNoGoroutineOutlives*
# tests, TestHotPathZeroAllocs).
go run ./cmd/mosaiclint ./...
# The machine-readable modes must stay encodable end to end (the golden
# tests pin the bytes; this pins the exit path on the real tree).
go run ./cmd/mosaiclint -sarif ./... >/dev/null
go run ./cmd/mosaiclint -json ./... >/dev/null
# -diff mode must resolve the changed packages and lint them cleanly.
go run ./cmd/mosaiclint -diff HEAD
# The sweep engine and the progress line are the only concurrency in the
# repo; hammer them under the race detector first so an engine race fails
# fast, then run the whole suite. Race runs get explicit timeouts: a
# deadlocked worker pool should fail the gate in minutes, not hang CI
# until the default 10-minute per-package limit compounds across packages.
go test -race -timeout 120s ./internal/sweep/... ./internal/obs/...
go test -race -timeout 300s ./...
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
# No mosaicd session query panics: accepted shapes build and replay.
go test -run='^$' -fuzz=FuzzSessionQuery -fuzztime=3s ./internal/daemon
# Nothing records the go-test benchmarks (bench/ is the repository
# benchmark), so run each once to keep them compiling and passing.
go test -run='^$' -bench=. -benchtime=1x ./...
# Batch-boundary gate: replaying one captured stream into the simulator at
# any batching — single references, odd sizes around DefaultBatchSize, the
# whole stream at once, sampler off and on, and the multiprogram
# quantum-sliced replay — must produce a byte-identical results file
# (counters, series, event ref-indices) to the default-size replay. The
# memsim case evicts in the middle of segments, which the fig6 stream
# never does, and must match the one-reference-per-batch order.
go test -run 'TestBatchBoundaryInvariance|TestSegmentsExactUnderEviction' -count=1 . ./internal/memsim
# Committed results gate: the six fast result tables must regenerate byte
# for byte at their defaults.
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

# Smoke-test the live-telemetry path end to end: start mosaicd on an
# ephemeral port, stream one tracegen session into it, scrape the merged
# Prometheus view, render two watch rows, then drain with SIGTERM and
# check the final results artifact parses.
go build -o "$tmp/mosaicd" ./cmd/mosaicd
go build -o "$tmp/tracegen" ./cmd/tracegen
go build -o "$tmp/mosaicstat" ./cmd/mosaicstat
"$tmp/mosaicd" -addr 127.0.0.1:0 -addrfile "$tmp/addr" -sample 10000 \
	-final "$tmp/mosaicd-final.json" >"$tmp/mosaicd.log" 2>&1 &
mosaicd_pid=$!
trap 'kill "$mosaicd_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 1 50); do
	[ -s "$tmp/addr" ] && break
	sleep 0.1
done
addr="$(cat "$tmp/addr")"
"$tmp/tracegen" -workload gups -footprint 8 -maxrefs 200000 \
	-post "http://$addr" >/dev/null
curl -sf "http://$addr/metrics" | grep -q '^mosaicd_sessions_completed 1$'
curl -sf "http://$addr/metrics" | grep -q '^vm_access 200000$'
curl -sf "http://$addr/sessions/1/results.json" >/dev/null
"$tmp/mosaicstat" watch -interval 0.2s -count 2 "http://$addr" >/dev/null
kill -TERM "$mosaicd_pid"
wait "$mosaicd_pid"
"$tmp/mosaicstat" show "$tmp/mosaicd-final.json" >/dev/null
