package memsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/invariant"
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
