package workloads

import (
	"math/rand"
	"slices"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/trace"
)

// visit is a BatchSink calling fn once per reference, in stream order.
type visit func(va uint64, write bool)

func (f visit) ProcessBatch(b trace.Batch) {
	for _, r := range b {
		f(r.VA(), r.Write())
	}
}

// discard drops every reference.
var discard = visit(func(uint64, bool) {})

// runAll drives w to completion into sink.
func runAll(w Workload, sink trace.BatchSink) {
	b := trace.NewBatcher(sink, 0)
	w.Run(b)
	b.Flush()
}

// record runs w to completion and returns its whole stream.
func record(w Workload) []trace.Ref {
	var out []trace.Ref
	runAll(w, visit(func(va uint64, write bool) {
		out = append(out, trace.MakeRef(va, write))
	}))
	return out
}

// countRW runs w to completion and counts its reads and writes.
func countRW(w Workload) (reads, writes uint64) {
	runAll(w, visit(func(_ uint64, write bool) {
		if write {
			writes++
		} else {
			reads++
		}
	}))
	return reads, writes
}

func TestArenaAlloc(t *testing.T) {
	a := NewArena(0)
	v1 := a.Alloc(100, 0)
	if v1 != DefaultHeapBase {
		t.Fatalf("first alloc at %#x", v1)
	}
	v2 := a.Alloc(8, 0)
	if v2 != DefaultHeapBase+104 { // 100 rounded to 8
		t.Fatalf("second alloc at %#x", v2)
	}
	v3 := a.Alloc(10, 4096)
	if v3%4096 != 0 {
		t.Fatalf("page-aligned alloc at %#x", v3)
	}
	if a.Size() != v3+10-DefaultHeapBase {
		t.Fatalf("Size = %d", a.Size())
	}
}

func TestArenaBadAlignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad alignment should panic")
		}
	}()
	NewArena(0).Alloc(8, 3)
}

func TestU64ArrayEmitsAccesses(t *testing.T) {
	a := NewArena(0)
	arr := NewU64Array(a, 10)
	var got []trace.Ref
	b := trace.NewBatcher(visit(func(va uint64, write bool) {
		got = append(got, trace.MakeRef(va, write))
	}), 0)
	arr.Set(b, 3, 42)
	if v := arr.Get(b, 3); v != 42 {
		t.Fatalf("Get = %d", v)
	}
	b.Flush()
	if len(got) != 2 {
		t.Fatalf("%d accesses", len(got))
	}
	want := arr.VA + 24
	if got[0] != trace.MakeRef(want, true) {
		t.Errorf("write access = (%#x, %v)", got[0].VA(), got[0].Write())
	}
	if got[1] != trace.MakeRef(want, false) {
		t.Errorf("read access = (%#x, %v)", got[1].VA(), got[1].Write())
	}
}

func TestRegistryAndByName(t *testing.T) {
	ws := Registry(4<<20, 1)
	if len(ws) != 4 {
		t.Fatalf("registry has %d workloads", len(ws))
	}
	wantNames := Names()
	for i, w := range ws {
		if w.Name() != wantNames[i] {
			t.Errorf("workload %d = %q, want %q", i, w.Name(), wantNames[i])
		}
		byName, err := ByName(w.Name(), 4<<20, 1)
		if err != nil {
			t.Fatal(err)
		}
		if byName.Name() != w.Name() {
			t.Errorf("ByName(%q) mismatch", w.Name())
		}
	}
	if _, err := ByName("nope", 1<<20, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFootprintsNearTarget(t *testing.T) {
	const target = 8 << 20
	for _, w := range Registry(target, 7) {
		fp := w.FootprintBytes()
		if fp < target/4 || fp > target*2 {
			t.Errorf("%s: footprint %d MiB not near target %d MiB",
				w.Name(), fp>>20, target>>20)
		}
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func() []trace.Ref {
				w, err := ByName(name, 1<<20, 99)
				if err != nil {
					t.Fatal(err)
				}
				return record(w)
			}
			a, b := run(), run()
			if len(a) != len(b) {
				t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("access %d differs: %#x vs %#x", i, a[i], b[i])
				}
			}
			if len(a) == 0 {
				t.Fatal("workload emitted nothing")
			}
		})
	}
}

func TestAccessesWithinFootprint(t *testing.T) {
	for _, w := range Registry(1<<20, 3) {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			lo := uint64(DefaultHeapBase)
			maxVA := uint64(0)
			runAll(w, visit(func(va uint64, write bool) {
				if va < lo {
					t.Fatalf("access %#x below heap base", va)
				}
				if va > maxVA {
					maxVA = va
				}
			}))
			// FootprintBytes is exact after Run; every access must fall
			// inside the reserved heap.
			if hi := lo + w.FootprintBytes(); maxVA >= hi {
				t.Errorf("max access %#x beyond heap end %#x", maxVA, hi)
			}
		})
	}
}

func TestGraph500BFSCorrect(t *testing.T) {
	g := NewGraph500(Graph500Config{Scale: 10, Seed: 5})
	runAll(g, discard)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Vertices() != 1024 {
		t.Fatalf("Vertices = %d", g.Vertices())
	}
}

func TestGraph500TouchesManyPages(t *testing.T) {
	g := NewGraph500(Graph500Config{Scale: 12, Seed: 5})
	pages := map[core.VPN]bool{}
	runAll(g, visit(func(va uint64, _ bool) { pages[core.VPNOf(va)] = true }))
	// The CSR arrays alone span hundreds of pages at scale 12.
	if len(pages) < 256 {
		t.Errorf("graph500 touched only %d pages", len(pages))
	}
}

// seenSetKeys is the reference key preparation: keep drawing until n
// distinct values are in hand, then sort.
func seenSetKeys(n int, draw func() uint64) []uint64 {
	keys := make([]uint64, 0, n)
	seen := make(map[uint64]bool, n)
	for len(keys) < n {
		k := draw()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// TestDrawKeysMatchesSeenSet checks drawKeys and the reference model's
// sortedKeys against the seen-set loop on the same generator: an identical
// number of draws, so a BTree's lookup stream after the build cannot move,
// and for sortedKeys identical keys. The repeat cases force the fallback:
// draws from a small range, and full 64-bit draws in which one value
// comes back, which only the prefix bitmap's shared prefixes can reveal.
func TestDrawKeysMatchesSeenSet(t *testing.T) {
	for _, c := range []struct {
		name    string
		n       int
		mod     uint64 // 0 = full 64-bit draws
		again   int    // > 0: draw again returns draw 1's value
		repeats bool   // the first n draws must repeat, forcing the fallback
	}{
		{"uint64", 20000, 0, 0, false},
		{"uint64-repeat", 20000, 0, 12345, true},
		{"uint64-repeat-last", 300, 0, 300, true},
		{"mod512", 300, 512, 0, true},
		{"exhaustive", 256, 256, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			gen := func(draws *int) func() uint64 {
				r := rand.New(rand.NewSource(7))
				var first uint64
				return func() uint64 {
					*draws++
					v := r.Uint64()
					switch {
					case *draws == 1:
						first = v
					case *draws == c.again:
						v = first
					}
					if c.mod != 0 {
						v %= c.mod
					}
					return v
				}
			}
			var drawn, sortedDraws, wantDraws int
			drawKeys(c.n, gen(&drawn))
			got := sortedKeys(c.n, gen(&sortedDraws))
			want := seenSetKeys(c.n, gen(&wantDraws))
			if !slices.Equal(got, want) {
				t.Fatalf("keys differ:\n got  %v\n want %v", got[:min(len(got), 8)], want[:min(len(want), 8)])
			}
			if drawn != wantDraws || sortedDraws != wantDraws {
				t.Fatalf("drawKeys drew %d values and sortedKeys %d, the seen-set loop %d", drawn, sortedDraws, wantDraws)
			}
			if repeated := wantDraws > c.n; repeated != c.repeats {
				t.Fatalf("%d draws for %d keys: repeats = %v, want %v", wantDraws, c.n, repeated, c.repeats)
			}
		})
	}
}

func TestGUPSUpdatesLand(t *testing.T) {
	g := NewGUPS(GUPSConfig{TableWords: 1 << 12, Updates: 1 << 14, Seed: 1})
	if g.TableWords() != 1<<12 {
		t.Fatalf("TableWords = %d", g.TableWords())
	}
	if reads, writes := countRW(g); reads != 1<<14 || writes != 1<<14 {
		t.Errorf("reads=%d writes=%d, want %d each", reads, writes, 1<<14)
	}
	if g.Checksum() == 0 {
		t.Error("table unchanged after updates")
	}
}

func TestGUPSPowerOfTwoRounding(t *testing.T) {
	g := NewGUPS(GUPSConfig{TableWords: 1000, Updates: 1, Seed: 1})
	if g.TableWords() != 512 {
		t.Errorf("TableWords = %d, want 512", g.TableWords())
	}
}

func TestXSBenchEmitsGatherPattern(t *testing.T) {
	x := NewXSBench(XSBenchConfig{GridPoints: 200, Nuclides: 16, Lookups: 50, Seed: 2})
	accesses := record(x)
	if len(accesses) == 0 {
		t.Fatal("no accesses")
	}
	// Every access is a read (the lookup kernel is read-only).
	for _, a := range accesses {
		if a.Write() {
			t.Fatal("XSBench lookup kernel should not write")
		}
	}
	// Each lookup costs at least log2(unionized) probes + per-nuclide reads.
	perLookup := float64(len(accesses)) / 50
	if perLookup < 20 {
		t.Errorf("only %.1f accesses per lookup", perLookup)
	}
}

func TestXSBenchEnergyGridSorted(t *testing.T) {
	x := NewXSBench(XSBenchConfig{GridPoints: 100, Nuclides: 8, Lookups: 1, Seed: 2})
	for i := 1; i < len(x.egrid.Data); i++ {
		if x.egrid.Data[i] < x.egrid.Data[i-1] {
			t.Fatalf("unionized grid unsorted at %d", i)
		}
	}
	// Index grid entries must be valid gridpoint indices.
	for _, v := range x.index.Data {
		if int(v) >= x.cfg.GridPoints {
			t.Fatalf("index entry %d out of range", v)
		}
	}
}

func BenchmarkGraph500Run(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := NewGraph500(Graph500Config{Scale: 12, Seed: uint64(i)})
		runAll(g, discard)
	}
}

func BenchmarkBTreeLookup(b *testing.B) {
	bt := NewBTree(BTreeConfig{Keys: 100000, Lookups: 1, Seed: 1})
	runAll(bt, discard)
	sink := trace.NewBatcher(discard, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.lookup(sink, i%bt.cfg.Keys)
	}
}

func TestSortKeys(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 3, 4, 7, 8, 100, 5000} {
		for _, spread := range []uint64{0, 64, 1 << 40} { // 0 = full 64-bit keys
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = r.Uint64()
				if spread != 0 {
					keys[i] %= spread
				}
			}
			want := slices.Sorted(slices.Values(keys))
			if got := sortKeys(keys); !slices.Equal(got, want) {
				t.Fatalf("n=%d spread=%d: sortKeys = %v, want %v", n, spread, got[:min(n, 8)], want[:min(n, 8)])
			}
		}
	}
}
