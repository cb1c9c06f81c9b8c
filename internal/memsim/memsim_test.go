package memsim

import (
	"reflect"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/pagetable"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
	"mosaic/internal/workloads"
)

func newSim(t testing.TB, cfg Config) *Simulator {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runWorkload drives w into s, stopping after maxRefs references (0 runs
// the workload to completion).
func runWorkload(s *Simulator, w workloads.Workload, maxRefs uint64) {
	b := trace.NewBatcher(s, maxRefs)
	w.Run(b)
	b.Flush()
}

func specs(entries, ways int, arities ...int) []TLBSpec {
	g := tlb.Geometry{Entries: entries, Ways: ways}
	out := []TLBSpec{{Geometry: g, Arity: 0}}
	for _, a := range arities {
		out = append(out, TLBSpec{Geometry: g, Arity: a})
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty spec list accepted")
	}
	if _, err := New(Config{Specs: []TLBSpec{{Geometry: tlb.Geometry{Entries: 10, Ways: 3}}}}); err == nil {
		t.Error("invalid TLB geometry accepted")
	}
	// Unit parameters the TLB constructors would panic on are errors.
	g := tlb.Geometry{Entries: 16, Ways: 4}
	for _, spec := range []TLBSpec{
		{Geometry: g, Arity: 3},
		{Geometry: g, Arity: -4},
		// An arity longer than one chunk of page records has no ToC
		// window; 1<<50 used to reach the TLB's arena allocation.
		{Geometry: g, Arity: 1024},
		{Geometry: g, Arity: 1 << 50},
		{Geometry: g, Coalesce: 3},
		{Geometry: g, Coalesce: 128},
		{Geometry: g, Coalesce: -2},
	} {
		if _, err := New(Config{Frames: 1 << 10, Specs: []TLBSpec{spec}}); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

func TestSpecLabels(t *testing.T) {
	if got := (TLBSpec{Arity: 0}).Label(); got != "Vanilla" {
		t.Errorf("label = %q", got)
	}
	if got := (TLBSpec{Arity: 16}).Label(); got != "Mosaic-16" {
		t.Errorf("label = %q", got)
	}
}

func TestSequentialScanMosaicWins(t *testing.T) {
	// Scan 2× vanilla reach repeatedly: vanilla misses every page each
	// round; mosaic-4 covers the region with room to spare.
	s := newSim(t, Config{Frames: 1 << 16, Specs: specs(64, 8, 4)})
	for round := 0; round < 8; round++ {
		for p := 0; p < 128; p++ {
			s.Access(uint64(workloads.DefaultHeapBase)+uint64(p)*core.PageSize, false)
		}
	}
	rv, _ := s.ResultFor("Vanilla")
	rm, _ := s.ResultFor("Mosaic-4")
	if rv.TLB.Lookups() != rm.TLB.Lookups() {
		t.Fatalf("units saw different streams: %d vs %d", rv.TLB.Lookups(), rm.TLB.Lookups())
	}
	if rm.TLB.Misses*4 > rv.TLB.Misses {
		t.Errorf("mosaic misses %d not ≪ vanilla %d", rm.TLB.Misses, rv.TLB.Misses)
	}
}

func TestWalksEqualMisses(t *testing.T) {
	s := newSim(t, Config{Frames: 1 << 16, Specs: specs(64, 8, 4, 8)})
	g := workloads.NewGUPS(workloads.GUPSConfig{TableWords: 1 << 14, Updates: 1 << 14, Seed: 1})
	runWorkload(s, g, 0)
	for _, r := range s.Results() {
		if r.Walks != r.TLB.Misses {
			t.Errorf("%s: walks %d != misses %d", r.Spec.Label(), r.Walks, r.TLB.Misses)
		}
		if r.WalkAccesses != 4*r.Walks {
			t.Errorf("%s: walk refs %d != 4×walks %d", r.Spec.Label(), r.WalkAccesses, r.Walks)
		}
		if r.TLB.EntryMisses+r.TLB.SubMisses != r.TLB.Misses {
			t.Errorf("%s: miss breakdown inconsistent: %+v", r.Spec.Label(), r.TLB)
		}
	}
}

// TestWalkCountsWithoutTables: a simulator without caches or a walk cache
// builds no page tables and counts each walk as pagetable.Levels reads.
// One stream that evicts throughout runs through vanilla, Mosaic-4,
// Mosaic-64 and CoLT-4 units without tables, with caches (real walks
// through real tables) and with the walk cache too. Every unit's TLB
// stats and walk count must match in all three, and its walk reads must
// match with caches; the walk cache instead keeps every read it absorbs
// out of the count.
func TestWalkCountsWithoutTables(t *testing.T) {
	g := tlb.Geometry{Entries: 16, Ways: 4}
	unitSpecs := []TLBSpec{{Geometry: g}, {Geometry: g, Arity: 4}, {Geometry: g, Arity: 64}, {Geometry: g, Coalesce: 4}}
	run := func(caches, walkCache bool) (*Simulator, []Result) {
		s := newSim(t, Config{Frames: 256, Specs: unitSpecs, EnableCaches: caches, EnableWalkCache: walkCache, Seed: 5})
		runWorkload(s, workloads.NewXSBench(workloads.XSBenchConfig{TargetBytes: 4 << 20, Seed: 5}), 200_000)
		return s, s.Results()
	}
	bare, want := run(false, false)
	if bare.pts != nil {
		t.Fatal("a simulator without caches or a walk cache built page tables")
	}
	if n := bare.metrics.CounterValue("tlb.shootdown"); n < 500 {
		t.Fatalf("only %d shootdowns: the stream must evict throughout", n)
	}
	_, cached := run(true, false)
	_, walkCached := run(true, true)
	for i, w := range want {
		label := w.Spec.Label()
		if w.Walks != w.TLB.Misses || w.WalkAccesses != pagetable.Levels*w.Walks {
			t.Errorf("%s without tables: %d walks reading %d entries for %d misses", label, w.Walks, w.WalkAccesses, w.TLB.Misses)
		}
		if c := cached[i]; c.TLB != w.TLB || c.Walks != w.Walks || c.WalkAccesses != w.WalkAccesses {
			t.Errorf("%s with caches: %+v, %d walks reading %d entries; without tables %+v, %d, %d",
				label, c.TLB, c.Walks, c.WalkAccesses, w.TLB, w.Walks, w.WalkAccesses)
		}
		if c := walkCached[i]; c.TLB != w.TLB || c.Walks != w.Walks || c.WalkAccesses+c.WalkCacheHits != w.WalkAccesses || c.WalkCacheHits == 0 {
			t.Errorf("%s with the walk cache: %+v, %d walks reading %d entries with %d walk-cache hits; without tables %+v, %d, %d",
				label, c.TLB, c.Walks, c.WalkAccesses, c.WalkCacheHits, w.TLB, w.Walks, w.WalkAccesses)
		}
	}
}

func TestGraph500MosaicReduction(t *testing.T) {
	// The paper's headline (Figure 6a): Mosaic-4 substantially reduces
	// Graph500 TLB misses at equal entry count.
	s := newSim(t, Config{Frames: 1 << 18, Specs: specs(256, 8, 4, 16)})
	runWorkload(s, workloads.NewGraph500(workloads.Graph500Config{Scale: 13, Seed: 1}), 0)
	rv, _ := s.ResultFor("Vanilla")
	r4, _ := s.ResultFor("Mosaic-4")
	r16, _ := s.ResultFor("Mosaic-16")
	if r4.TLB.Misses >= rv.TLB.Misses {
		t.Errorf("Mosaic-4 misses %d ≥ vanilla %d", r4.TLB.Misses, rv.TLB.Misses)
	}
	if r16.TLB.Misses >= r4.TLB.Misses {
		t.Errorf("Mosaic-16 misses %d ≥ Mosaic-4 %d (larger arity should help)", r16.TLB.Misses, r4.TLB.Misses)
	}
	red := 100 * (1 - float64(r4.TLB.Misses)/float64(rv.TLB.Misses))
	t.Logf("graph500: vanilla=%d mosaic4=%d (%.1f%% reduction) mosaic16=%d",
		rv.TLB.Misses, r4.TLB.Misses, red, r16.TLB.Misses)
}

func TestAssociativityMonotonicityVanilla(t *testing.T) {
	// More ways never (meaningfully) hurts vanilla on a fixed stream.
	g := tlb.Geometry{Entries: 128, Ways: 1}
	gFull := tlb.Geometry{Entries: 128, Ways: 128}
	s := newSim(t, Config{Frames: 1 << 16, Specs: []TLBSpec{{Geometry: g}, {Geometry: gFull}}})
	runWorkload(s, workloads.NewGUPS(workloads.GUPSConfig{TableWords: 1 << 15, Updates: 1 << 15, Seed: 3}), 0)
	rs := s.Results()
	direct, full := rs[0], rs[1]
	if full.TLB.Misses > direct.TLB.Misses {
		t.Errorf("fully-associative misses %d > direct-mapped %d", full.TLB.Misses, direct.TLB.Misses)
	}
}

func TestEvictionShootdownKeepsCoherence(t *testing.T) {
	// Tiny memory: pages swap in and out; page tables and TLBs must track.
	s := newSim(t, Config{Frames: 128, Specs: specs(64, 8, 4)})
	base := uint64(workloads.DefaultHeapBase)
	for round := 0; round < 5; round++ {
		for p := 0; p < 200; p++ { // footprint 200 pages > 128 frames
			s.Access(base+uint64(p)*core.PageSize, p%3 == 0)
		}
	}
	if s.OS().Device().PageOuts() == 0 {
		t.Fatal("no evictions despite oversubscription")
	}
	if s.Metrics().CounterValue("tlb.shootdown") == 0 {
		t.Fatal("no shootdowns recorded")
	}
	// After the run, every resident page must still walk successfully —
	// exercised implicitly (panics on failure), so just re-touch everything.
	for p := 0; p < 200; p++ {
		s.Access(base+uint64(p)*core.PageSize, false)
	}
}

func TestCachesAccounting(t *testing.T) {
	s := newSim(t, Config{
		Frames:       1 << 16,
		Specs:        specs(64, 8, 4),
		EnableCaches: true,
	})
	runWorkload(s, workloads.NewGUPS(workloads.GUPSConfig{TableWords: 1 << 13, Updates: 1 << 13, Seed: 1}), 0)
	for _, r := range s.Results() {
		if r.AMAT <= 0 {
			t.Errorf("%s: AMAT = %f", r.Spec.Label(), r.AMAT)
		}
		if len(r.CacheStats) != 3 {
			t.Errorf("%s: %d cache levels", r.Spec.Label(), len(r.CacheStats))
		}
		l1 := r.CacheStats[0]
		// L1 sees data refs + walk refs.
		want := r.TLB.Lookups() + r.WalkAccesses
		if l1.Hits+l1.Misses != want {
			t.Errorf("%s: L1 lookups %d, want %d", r.Spec.Label(), l1.Hits+l1.Misses, want)
		}
	}
}

func TestRunLimited(t *testing.T) {
	s := newSim(t, Config{Frames: 1 << 16, Specs: specs(64, 8)})
	g := workloads.NewGUPS(workloads.GUPSConfig{TableWords: 1 << 14, Updates: 1 << 20, Seed: 1})
	runWorkload(s, g, 5000)
	r := s.Results()[0]
	if r.TLB.Lookups() != 5000 {
		t.Errorf("limited run saw %d lookups, want 5000", r.TLB.Lookups())
	}
}

// TestArityOrderDeterministic: with caches on and several mosaic arities,
// faults and evictions allocate page-table nodes for each arity from one
// shared bump allocator, so the walk addresses — and with them the cache
// cycle counts — depend on the order arities are visited. That order is
// fixed (ascending), so repeated runs must agree exactly.
func TestArityOrderDeterministic(t *testing.T) {
	var first []Result
	for i := 0; i < 4; i++ {
		s := newSim(t, Config{
			Frames:          1 << 12,
			Specs:           specs(64, 8, 16, 4),
			EnableCaches:    true,
			EnableWalkCache: true,
			Seed:            1,
		})
		runWorkload(s, workloads.NewXSBench(workloads.XSBenchConfig{TargetBytes: 2 << 20, Seed: 1}), 100_000)
		got := s.Results()
		if i == 0 {
			first = got
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged from run 0:\n%+v\nvs\n%+v", i, got, first)
		}
	}
}

// TestWalkAddressesPinned pins committed per-unit cycle and walk-cache
// counts for a small xsbench run with caches and the walk cache on.
// Page-table nodes take their physical addresses from one bump allocator
// in fault order (vanilla first, then the arities ascending), and those
// addresses decide the walk cache's hits and the cache sets walks land in.
// TestArityOrderDeterministic compares runs with each other; this test
// compares them with the numbers the node order produced when it was
// fixed, so any change to the order of node allocation fails it.
func TestWalkAddressesPinned(t *testing.T) {
	s := newSim(t, Config{
		Frames:          1 << 13,
		Specs:           specs(16, 4, 4, 8, 16, 64),
		EnableCaches:    true,
		EnableWalkCache: true,
		Seed:            1,
	})
	runWorkload(s, workloads.NewXSBench(workloads.XSBenchConfig{TargetBytes: 8 << 20, Seed: 1}), 200_000)
	want := []struct {
		label                                  string
		totalCycles, walkCycles, walkCacheHits uint64
	}{
		{"Vanilla", 4193717, 86556, 59160},
		{"Mosaic-4", 4150090, 45070, 51543},
		{"Mosaic-8", 4143798, 38153, 41868},
		{"Mosaic-16", 4123696, 18711, 23757},
		{"Mosaic-64", 4109094, 3989, 3492},
	}
	got := s.Results()
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i, w := range want {
		r := got[i]
		if r.Spec.Label() != w.label || r.TotalCycles != w.totalCycles || r.WalkCycles != w.walkCycles || r.WalkCacheHits != w.walkCacheHits {
			t.Errorf("%s: total %d, walk %d cycles, %d walk-cache hits; want %s: %d, %d, %d",
				r.Spec.Label(), r.TotalCycles, r.WalkCycles, r.WalkCacheHits,
				w.label, w.totalCycles, w.walkCycles, w.walkCacheHits)
		}
	}
}

func TestResultForUnknown(t *testing.T) {
	s := newSim(t, Config{Frames: 1 << 16, Specs: specs(64, 8)})
	if _, ok := s.ResultFor("Mosaic-64"); ok {
		t.Error("found result for absent spec")
	}
}
