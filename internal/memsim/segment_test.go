package memsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/invariant"
	"mosaic/internal/obs"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
	"mosaic/internal/workloads"
)

// TestSegmentsExactUnderEviction feeds one random stream to two simulators:
// one reference per batch, which is the per-reference order, and 4096
// references per batch, which the units run as long segments. The stream
// cycles over more pages than memory has frames, so evictions land in the
// middle of segments: every eviction must first run the pending segment,
// or a unit would see the shootdown (and the cleared page-table entry)
// before references that came ahead of it. Caches and the walk cache are
// on, so a reordered walk or data access would show in the cycle counts
// too. Every unit kind runs at a narrow and a 64-way geometry.
func TestSegmentsExactUnderEviction(t *testing.T) {
	var unitSpecs []TLBSpec
	for _, g := range []tlb.Geometry{{Entries: 16, Ways: 2}, {Entries: 64, Ways: 64}} {
		unitSpecs = append(unitSpecs, TLBSpec{Geometry: g}, TLBSpec{Geometry: g, Arity: 4}, TLBSpec{Geometry: g, Coalesce: 4})
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pages := 64 + rng.Intn(64)
			stream := make(trace.Batch, 20_000)
			for i := range stream {
				va := uint64(workloads.DefaultHeapBase) + uint64(rng.Intn(pages))*core.PageSize + uint64(rng.Intn(core.PageSize))
				stream[i] = trace.MakeRef(va, rng.Intn(4) == 0)
			}
			run := func(batch int) *Simulator {
				s := newSim(t, Config{Frames: 64, Specs: unitSpecs, EnableCaches: true, EnableWalkCache: true, Seed: uint64(seed)})
				for off := 0; off < len(stream); off += batch {
					s.ProcessBatch(stream[off:min(off+batch, len(stream))])
				}
				var r invariant.Report
				s.CheckInvariants(&r)
				if err := r.Err(); err != nil {
					t.Fatalf("batches of %d: %v", batch, err)
				}
				return s
			}
			single, segmented := run(1), run(trace.DefaultBatchSize)
			if n := single.metrics.CounterValue("tlb.shootdown"); n < 1000 {
				t.Fatalf("only %d shootdowns: the stream must evict throughout", n)
			}
			want, got := single.Results(), segmented.Results()
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s %s: segmented run diverged from per-reference order:\n got  %+v\n want %+v",
						want[i].Spec.Geometry, want[i].Spec.Label(), got[i], want[i])
				}
			}
		})
	}
}

// TestSegmentsExactUnderFaults is the fault-side sibling of
// TestSegmentsExactUnderEviction. Memory is ample, so nothing is evicted
// and a 4096-reference batch runs as one segment; the stream keeps
// faulting new pages into mosaic pages and CoLT groups whose other pages
// units have already filled. A unit replaying reference i must read every
// record as of i's clock: a page that faults in later in the segment must
// be absent from the ToC or neighbour group a fill at i copies, or the
// unit would hit on it before the reference that brought it in.
func TestSegmentsExactUnderFaults(t *testing.T) {
	var unitSpecs []TLBSpec
	for _, g := range []tlb.Geometry{{Entries: 16, Ways: 2}, {Entries: 64, Ways: 64}} {
		unitSpecs = append(unitSpecs, TLBSpec{Geometry: g}, TLBSpec{Geometry: g, Arity: 4},
			TLBSpec{Geometry: g, Arity: 64}, TLBSpec{Geometry: g, Coalesce: 4})
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// Pages come into use a few at a time, each next to pages
			// already in use, while the stream keeps re-touching those.
			const pages = 1024
			stream := make(trace.Batch, 20_000)
			live := 1
			for i := range stream {
				if live < pages && rng.Intn(16) == 0 {
					live++
				}
				p := live - 1
				if rng.Intn(2) == 0 {
					p = rng.Intn(live)
				}
				va := uint64(workloads.DefaultHeapBase) + uint64(p)*core.PageSize + uint64(rng.Intn(core.PageSize))
				stream[i] = trace.MakeRef(va, rng.Intn(4) == 0)
			}
			run := func(batch int) *Simulator {
				s := newSim(t, Config{Frames: 1 << 12, Specs: unitSpecs, EnableCaches: true, EnableWalkCache: true, Seed: uint64(seed)})
				for off := 0; off < len(stream); off += batch {
					s.ProcessBatch(stream[off:min(off+batch, len(stream))])
				}
				var r invariant.Report
				s.CheckInvariants(&r)
				if err := r.Err(); err != nil {
					t.Fatalf("batches of %d: %v", batch, err)
				}
				return s
			}
			single, segmented := run(1), run(trace.DefaultBatchSize)
			if n := single.metrics.CounterValue("tlb.shootdown"); n != 0 {
				t.Fatalf("%d shootdowns: the stream must not evict", n)
			}
			if n := single.metrics.CounterValue("vm.fault.minor"); n < 500 {
				t.Fatalf("only %d faults: the stream must fault throughout", n)
			}
			want, got := single.Results(), segmented.Results()
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s %s: segmented run diverged from per-reference order:\n got  %+v\n want %+v",
						want[i].Spec.Geometry, want[i].Spec.Label(), got[i], want[i])
				}
			}
		})
	}
}

// TestRunsExact checks the run rows: a run of references to one page is
// one row, looked up once, and every unit counts the row's other
// references as hits. The stream is runs of one to eight references to
// one page; the run's page is often the first touch of the next page,
// which shares a mosaic page or CoLT group with pages units have already
// filled, so sub-entry misses follow runs. Memory holds only part of the
// pages, so evictions end segments and shoot entries down throughout. One
// reference per batch makes every row a single reference; 4096 per batch
// makes rows of whole runs. In the edged runs a sampler window edge and a
// CheckEvery audit edge, every 997 and 409 references, cut the runs that
// span them, so the probes and the audit read the state after exactly
// the reference at the edge. The two batchings must agree on every
// result, cache and walk counters included, and on every sampled point.
func TestRunsExact(t *testing.T) {
	const sampleEvery, checkEvery = 997, 409
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const pages = 192
			stream := make(trace.Batch, 0, 20_000)
			repeats, next, p := 0, 1, 0
			for len(stream) < cap(stream) {
				switch r := rng.Intn(4); {
				case r == 0:
					// The next page in line: a first touch, or after a
					// wrap a page that memory has since evicted.
					p, next = next, (next+1)%pages
				case r == 1:
					p = (next + pages - 1 - rng.Intn(16)) % pages
				}
				for range min(1+rng.Intn(8), cap(stream)-len(stream)) {
					va := uint64(workloads.DefaultHeapBase) + uint64(p)*core.PageSize + uint64(rng.Intn(core.PageSize))
					if n := len(stream); n > 0 && core.VPNOf(stream[n-1].VA()) == core.VPNOf(va) {
						repeats++
					}
					stream = append(stream, trace.MakeRef(va, rng.Intn(4) == 0))
				}
			}
			if repeats < len(stream)/2 {
				t.Fatalf("only %d of %d references repeat their predecessor's page", repeats, len(stream))
			}
			// cut counts the edges every k references that fall inside a
			// run, between two references to one page.
			cut := func(k int) (n int) {
				for e := k; e < len(stream); e += k {
					if core.VPNOf(stream[e-1].VA()) == core.VPNOf(stream[e].VA()) {
						n++
					}
				}
				return n
			}
			if a, b := cut(sampleEvery), cut(checkEvery); a < 5 || b < 10 {
				t.Fatalf("only %d sampler and %d audit edges fall inside a run", a, b)
			}
			for _, g := range []tlb.Geometry{{Entries: 16, Ways: 2}, {Entries: 64, Ways: 64}} {
				unitSpecs := []TLBSpec{{Geometry: g}, {Geometry: g, Arity: 4}, {Geometry: g, Arity: 64}, {Geometry: g, Coalesce: 4}}
				for _, edged := range []bool{false, true} {
					run := func(batch int) *Simulator {
						cfg := Config{Frames: 64, Specs: unitSpecs, EnableCaches: true, EnableWalkCache: true, Seed: uint64(seed)}
						if edged {
							cfg.Obs, cfg.CheckEvery = obs.NewObserver(sampleEvery), checkEvery
						}
						s := newSim(t, cfg)
						for off := 0; off < len(stream); off += batch {
							s.ProcessBatch(stream[off:min(off+batch, len(stream))])
						}
						var r invariant.Report
						s.CheckInvariants(&r)
						if err := r.Err(); err != nil {
							t.Fatalf("%s, edged %v, batches of %d: %v", g, edged, batch, err)
						}
						s.FinalizeMetrics()
						return s
					}
					single, segmented := run(1), run(trace.DefaultBatchSize)
					if n := single.metrics.CounterValue("tlb.shootdown"); n < 500 {
						t.Fatalf("only %d shootdowns: the stream must evict throughout", n)
					}
					want, got := single.Results(), segmented.Results()
					for i := range want {
						if want[i].Spec.Arity != 0 && want[i].TLB.SubMisses < 100 {
							t.Fatalf("%s %s: only %d sub-entry misses", g, want[i].Spec.Label(), want[i].TLB.SubMisses)
						}
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Errorf("%s %s, edged %v: rows of runs diverged from per-reference order:\n got  %+v\n want %+v",
								g, want[i].Spec.Label(), edged, got[i], want[i])
						}
					}
					if edged {
						// NaN marks an empty window; compare the printed
						// series so it equals itself.
						want, got := fmt.Sprint(single.Sampler().Series()), fmt.Sprint(segmented.Sampler().Series())
						if got != want {
							t.Errorf("%s: sampled series diverged:\n got  %s\n want %s", g, got, want)
						}
					}
				}
			}
		})
	}
}
