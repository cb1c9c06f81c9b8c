package workloads

import (
	"math/rand"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/trace"
)

func TestKVStoreBasics(t *testing.T) {
	kv := NewKVStore(KVStoreConfig{Keys: 10000, Ops: 5000, Seed: 1})
	if kv.Name() != "kvstore" {
		t.Fatalf("Name = %q", kv.Name())
	}
	if kv.Keys() != 10000 {
		t.Fatalf("Keys = %d", kv.Keys())
	}
	reads, writes := countRW(kv)
	if reads+writes == 0 {
		t.Fatal("no accesses emitted")
	}
	// ~10% of ops are SETs; each writes ValueSize/64 lines.
	if writes == 0 {
		t.Error("no writes despite SET fraction")
	}
	if writes > reads {
		t.Errorf("writes (%d) exceed reads (%d) at 90%% read fraction", writes, reads)
	}
}

func TestKVStoreByName(t *testing.T) {
	w, err := ByName("kvstore", 4<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	fp := w.FootprintBytes()
	if fp < 2<<20 || fp > 8<<20 {
		t.Errorf("footprint %d not near 4 MiB target", fp)
	}
	// Not part of the paper's Table 2 set.
	for _, n := range Names() {
		if n == "kvstore" {
			t.Error("kvstore listed among the paper's workloads")
		}
	}
}

func TestKVStoreDeterministic(t *testing.T) {
	run := func() []trace.Ref {
		kv := NewKVStore(KVStoreConfig{Keys: 2000, Ops: 2000, Seed: 42})
		return record(kv)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d differs", i)
		}
	}
}

func TestKVStoreAccessesWithinHeap(t *testing.T) {
	kv := NewKVStore(KVStoreConfig{Keys: 5000, Ops: 5000, Seed: 3})
	lo := uint64(DefaultHeapBase)
	hi := lo + kv.FootprintBytes()
	runAll(kv, visit(func(va uint64, _ bool) {
		if va < lo || va >= hi {
			t.Fatalf("access %#x outside heap [%#x,%#x)", va, lo, hi)
		}
	}))
}

func TestKVStoreZipfSkew(t *testing.T) {
	// The hot key must be dramatically more popular than the median key.
	kv := NewKVStore(KVStoreConfig{Keys: 10000, Ops: 50000, Seed: 4})
	counts := map[core.VPN]int{}
	runAll(kv, visit(func(va uint64, _ bool) {
		counts[core.VPNOf(va)] = counts[core.VPNOf(va)] + 1
	}))
	// Zipf: a few pages should dominate the access counts.
	max, total := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	mean := total / len(counts)
	if max < 10*mean {
		t.Errorf("hottest page %d accesses vs mean %d: not skewed", max, mean)
	}
}

func TestZipfSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z := newZipf(rng, 0.99, 1000)
	counts := make([]int, 1000)
	for i := 0; i < 200000; i++ {
		r := z.next()
		if r < 0 || r >= 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	// Rank 0 most popular; decreasing-ish by decade.
	if counts[0] < counts[10] || counts[10] < counts[100] {
		t.Errorf("zipf not decreasing: c0=%d c10=%d c100=%d", counts[0], counts[10], counts[100])
	}
	// Head heaviness: top 10% of keys take well over half the mass at s≈1.
	head := 0
	for _, c := range counts[:100] {
		head += c
	}
	if float64(head)/200000 < 0.5 {
		t.Errorf("top 10%% carries only %.1f%% of accesses", 100*float64(head)/200000)
	}
}

func TestZipfTinyN(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 3} {
		z := newZipf(rng, 0.99, n)
		for i := 0; i < 1000; i++ {
			if r := z.next(); r < 0 || r >= n {
				t.Fatalf("n=%d: rank %d out of range", n, r)
			}
		}
	}
}
