package memsim

import (
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/tlb"
	"mosaic/internal/workloads"
)

func TestCoalescedSpecLabel(t *testing.T) {
	if got := (TLBSpec{Coalesce: 4}).Label(); got != "CoLT-4" {
		t.Errorf("label = %q", got)
	}
}

func TestCoalesceAndArityExclusive(t *testing.T) {
	_, err := New(Config{Specs: []TLBSpec{{
		Geometry: tlb.Geometry{Entries: 64, Ways: 8}, Arity: 4, Coalesce: 4,
	}}})
	if err == nil {
		t.Fatal("spec with both Arity and Coalesce accepted")
	}
}

func TestCoalescingFindsNoContiguityUnderMosaicPlacement(t *testing.T) {
	// The paper's core comparison: on a hashed (mosaic-constrained)
	// physical layout, a coalescing TLB gets essentially no reach benefit,
	// while a mosaic TLB of the same run length gets the full factor.
	g := tlb.Geometry{Entries: 64, Ways: 8}
	s := newSim(t, Config{
		Frames: 1 << 16,
		Specs: []TLBSpec{
			{Geometry: g},              // vanilla
			{Geometry: g, Coalesce: 4}, // CoLT-4
			{Geometry: g, Arity: 4},    // Mosaic-4
		},
	})
	base := uint64(workloads.DefaultHeapBase)
	for round := 0; round < 10; round++ {
		for p := 0; p < 128; p++ { // 2× vanilla reach
			s.Access(base+uint64(p)*core.PageSize, false)
		}
	}
	rv, _ := s.ResultFor("Vanilla")
	rc, _ := s.ResultFor("CoLT-4")
	rm, _ := s.ResultFor("Mosaic-4")
	if rc.CoalescingFactor > 1.1 {
		t.Errorf("CoLT found contiguity %.2f under hashed placement", rc.CoalescingFactor)
	}
	// Without contiguity CoLT degenerates to vanilla…
	if rc.TLB.Misses < rv.TLB.Misses/2 {
		t.Errorf("CoLT misses %d ≪ vanilla %d despite no contiguity", rc.TLB.Misses, rv.TLB.Misses)
	}
	// …while mosaic still gets its 4×.
	if rm.TLB.Misses*2 > rc.TLB.Misses {
		t.Errorf("Mosaic misses %d not ≪ CoLT misses %d", rm.TLB.Misses, rc.TLB.Misses)
	}
	t.Logf("hashed placement: vanilla=%d CoLT-4=%d (factor %.2f) mosaic-4=%d",
		rv.TLB.Misses, rc.TLB.Misses, rc.CoalescingFactor, rm.TLB.Misses)
}

func TestWalkCacheShortensWalks(t *testing.T) {
	g := tlb.Geometry{Entries: 64, Ways: 8}
	with := newSim(t, Config{Frames: 1 << 16, Specs: []TLBSpec{{Geometry: g}}, EnableWalkCache: true})
	without := newSim(t, Config{Frames: 1 << 16, Specs: []TLBSpec{{Geometry: g}}})
	run := func(s *Simulator) Result {
		w := workloads.NewGUPS(workloads.GUPSConfig{TableWords: 1 << 14, Updates: 1 << 14, Seed: 4})
		runWorkload(s, w, 0)
		return s.Results()[0]
	}
	rw, ro := run(with), run(without)
	if rw.TLB.Misses != ro.TLB.Misses {
		t.Fatalf("walk cache changed TLB misses: %d vs %d", rw.TLB.Misses, ro.TLB.Misses)
	}
	if rw.WalkCacheHits == 0 {
		t.Fatal("walk cache never hit")
	}
	if rw.WalkAccesses+rw.WalkCacheHits != ro.WalkAccesses {
		t.Errorf("walk accounting: with=%d + hits=%d != without=%d",
			rw.WalkAccesses, rw.WalkCacheHits, ro.WalkAccesses)
	}
	// Upper levels are few and hot: the PWC should absorb most of them —
	// walks shrink from 4 reads towards 1–2.
	perWalk := float64(rw.WalkAccesses) / float64(rw.Walks)
	if perWalk > 2.5 {
		t.Errorf("%.2f memory reads per walk with a walk cache; expected ≤ 2.5", perWalk)
	}
	t.Logf("walk cache: %.2f reads/walk (4 without), %d hits", perWalk, rw.WalkCacheHits)
}

func TestWalkCacheLRU(t *testing.T) {
	w := newWalkCache(2)
	if w.lookupInsert(1) {
		t.Fatal("hit in empty cache")
	}
	if !w.lookupInsert(1) {
		t.Fatal("miss after insert")
	}
	w.lookupInsert(2)
	w.lookupInsert(1) // 1 MRU, 2 LRU
	w.lookupInsert(3) // evicts 2
	if w.lookupInsert(2) {
		t.Fatal("LRU entry survived")
	}
	if w.len() != 2 {
		t.Fatalf("len = %d", w.len())
	}
	// 2's reinsertion evicted 1 (LRU after 3's insert promoted 3).
	if !w.lookupInsert(3) {
		t.Fatal("recent entry evicted out of order")
	}
}

func TestCoalescedWorksWithSequentialPlacement(t *testing.T) {
	// Control for the comparison above: CoLT's mechanism itself is sound —
	// with genuinely contiguous PFNs it coalesces. Exercise the TLB
	// directly with a fabricated contiguous layout.
	co := tlb.NewCoalesced(tlb.Geometry{Entries: 64, Ways: 8}, 4)
	for round := 0; round < 10; round++ {
		for vpn := core.VPN(0); vpn < 512; vpn++ { // 8× entry count
			if _, ok := co.Lookup(vpn); !ok {
				group := vpn &^ 3
				var nb []tlb.NeighbourPFN
				for i := core.VPN(0); i < 4; i++ {
					nb = append(nb, tlb.NeighbourPFN{PFN: core.PFN(1000 + group + i), OK: true})
				}
				co.Insert(vpn, core.PFN(1000+vpn), nb)
			}
		}
	}
	if f := co.AvgRunLength(); f < 3.9 {
		t.Errorf("coalescing factor %.2f on fully contiguous layout", f)
	}
	// Reach quadruples: 512 pages fit in 128 coalesced entries… but the
	// TLB has only 64, so it still misses; the factor is what matters and
	// misses should be ~¼ of a vanilla TLB's (which misses every page).
	if co.Stats().Misses > 10*512/4+512 {
		t.Errorf("misses %d too high for 4× coalescing", co.Stats().Misses)
	}
}

func TestWalkOverheadAccounting(t *testing.T) {
	g := tlb.Geometry{Entries: 64, Ways: 8}
	s := newSim(t, Config{
		Frames:       1 << 16,
		Specs:        []TLBSpec{{Geometry: g}, {Geometry: g, Arity: 4}},
		EnableCaches: true,
	})
	// A working set far beyond TLB reach, so walks are frequent.
	runWorkload(s, workloads.NewGUPS(workloads.GUPSConfig{TableWords: 1 << 20, Updates: 1 << 16, Seed: 6}), 0)
	rv, rm := s.Results()[0], s.Results()[1]
	for _, r := range []Result{rv, rm} {
		if r.WalkCycles == 0 || r.WalkCycles >= r.TotalCycles {
			t.Errorf("%s: walk cycles %d of %d implausible", r.Spec.Label(), r.WalkCycles, r.TotalCycles)
		}
		if p := r.WalkOverheadPct(); p <= 0 || p >= 100 {
			t.Errorf("%s: overhead %.1f%%", r.Spec.Label(), p)
		}
	}
	// Fewer misses must mean a smaller translation share.
	if rm.WalkOverheadPct() >= rv.WalkOverheadPct() {
		t.Errorf("mosaic translation share %.1f%% not below vanilla %.1f%%",
			rm.WalkOverheadPct(), rv.WalkOverheadPct())
	}
	t.Logf("translation share of memory time: vanilla %.1f%%, mosaic-4 %.1f%% "+
		"(the paper's intro cites 20-30%% at GiB scale, where page tables "+
		"themselves miss in the caches; our MiB-scale tables stay cache-hot)",
		rv.WalkOverheadPct(), rm.WalkOverheadPct())
}
