#!/bin/sh
# check.sh — the repository's full verification gate: build, vet, the
# repo-specific mosaiclint analyzers, the test suite under the race
# detector, and a short fuzz smoke of the iceberg table. CI and pre-commit
# hooks should run exactly this.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The whole-module run includes the three compiler gates (hotalloc escape
# budget, bcegate bounds checks, inlinegate pinned hot functions) on top
# of the per-package analyzers.
go run ./cmd/mosaiclint ./...
# Baseline sync: regenerating every gate baseline from the current tree
# must be a no-op. A diff here means someone changed hot-path code and
# banked neither the improvement nor the regression — the working tree is
# left holding the regenerated files so the diff shows exactly what moved.
go run ./cmd/mosaiclint -update-escapes -update-bce -update-inline
git diff --exit-code -- internal/lint/escapes.baseline \
	internal/lint/bce.baseline internal/lint/inline.baseline
# The machine-readable modes must stay encodable end to end (the golden
# tests pin the bytes; this pins the exit path on the real tree).
go run ./cmd/mosaiclint -sarif ./... >/dev/null
go run ./cmd/mosaiclint -json ./... >/dev/null
# Call-graph determinism gate: the -callgraph export over the real module
# must be byte-identical run over run and at every worker count — the
# fixpoint summaries are computed rank-parallel, so a diff here means
# scheduling order leaked into SCC numbering, ranks, or edge order.
cg="$(mktemp -d)"
go run ./cmd/mosaiclint -callgraph json ./... >"$cg/a.json"
go run ./cmd/mosaiclint -callgraph json ./... >"$cg/b.json"
go run ./cmd/mosaiclint -callgraph json -workers 1 ./... >"$cg/w1.json"
go run ./cmd/mosaiclint -callgraph json -workers 8 ./... >"$cg/w8.json"
cmp "$cg/a.json" "$cg/b.json"
cmp "$cg/w1.json" "$cg/w8.json"
cmp "$cg/a.json" "$cg/w1.json"
rm -rf "$cg"
# -diff mode must load cleanly with the whole-program analyzers attached:
# a package-scoped run still builds a (partial) call graph, so dettaint and
# goleak run at whatever depth the diff scope gives them.
go run ./cmd/mosaiclint -diff HEAD
# The sweep engine and the progress line are the only concurrency in the
# repo; hammer them under the race detector first so an engine race fails
# fast, then run the whole suite. Race runs get explicit timeouts: a
# deadlocked worker pool should fail the gate in minutes, not hang CI
# until the default 10-minute per-package limit compounds across packages.
go test -race -timeout 120s ./internal/sweep/... ./internal/obs/...
go test -race -timeout 300s ./...
go test -run='^$' -fuzz=Fuzz -fuzztime=3s ./internal/iceberg
go test -run='^$' -fuzz=FuzzBatchEncodeDecode -fuzztime=3s ./internal/trace
# Batch-boundary gate: replaying one captured stream into the simulator at
# any batching — single references, odd sizes around DefaultBatchSize, the
# whole stream at once, sampler off and on, and the multiprogram
# quantum-sliced replay — must produce a byte-identical results file
# (counters, series, event ref-indices) to the default-size replay.
go test -run 'TestBatchBoundaryInvariance' -count=1 .

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
