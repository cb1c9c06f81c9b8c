package pagetable

import (
	"math/rand"
	"testing"

	"mosaic/internal/core"
)

// TestMapWalkNodes is the node lifecycle: a walk reaches a leaf entry
// exactly once its path is mapped, mapping again allocates nothing, and
// a neighbour in the same leaf node walks without being mapped itself.
func TestMapWalkNodes(t *testing.T) {
	var allocs int
	bump := BumpAllocator(1 << 40)
	pt := NewVanilla(func(size uint64) uint64 { allocs++; return bump(size) })
	if _, ok := pt.Walk(100, nil); ok {
		t.Fatal("walk reached a leaf in an empty table")
	}
	pt.Map(100)
	if allocs != 4 {
		t.Fatalf("mapping one page allocated %d nodes, want root + 3", allocs)
	}
	path, ok := pt.Walk(100, nil)
	if !ok || len(path) != 4 {
		t.Fatalf("Walk = %d levels, %v", len(path), ok)
	}
	pt.Map(100)
	pt.Map(101)
	if allocs != 4 {
		t.Fatalf("remapping allocated nodes: %d", allocs)
	}
	if _, ok := pt.Walk(102, nil); !ok {
		t.Fatal("a neighbour in a mapped leaf node must walk")
	}
}

func TestVanillaWalkPath(t *testing.T) {
	pt := NewVanilla(BumpAllocator(1 << 40))
	pt.Map(0x123456789)
	path, ok := pt.Walk(0x123456789, nil)
	if !ok {
		t.Fatal("mapped VPN does not walk")
	}
	if len(path) != 4 {
		t.Fatalf("walk touched %d levels, want 4", len(path))
	}
	// All entry addresses must be distinct and inside page-table space.
	seen := map[uint64]bool{}
	for _, pa := range path {
		if pa < 1<<40 {
			t.Fatalf("walk address %#x below page-table base", pa)
		}
		if seen[pa] {
			t.Fatalf("duplicate walk address %#x", pa)
		}
		seen[pa] = true
	}
	// A sibling VPN sharing the leaf node walks all four levels.
	if path2, ok := pt.Walk(0x123456788, nil); !ok || len(path2) != 4 {
		t.Fatalf("sibling VPN walk touched %d levels, want 4 (same leaf node)", len(path2))
	}
	// A walk stops at the first missing node, having read its entry.
	path3, ok := pt.Walk(0x523456789, nil)
	if ok || len(path3) != 1 {
		t.Fatalf("far VPN: ok=%v levels=%d, want miss after 1 level", ok, len(path3))
	}
}

func TestVanillaSharedUpperLevels(t *testing.T) {
	pt := NewVanilla(nil)
	pt.Map(0)
	pt.Map(1) // same leaf node
	p0, _ := pt.Walk(0, nil)
	p1, _ := pt.Walk(1, nil)
	for lvl := 0; lvl < 3; lvl++ {
		if p0[lvl] != p1[lvl] {
			t.Fatalf("level %d addresses differ for adjacent VPNs", lvl)
		}
	}
	if p0[3] == p1[3] {
		t.Fatal("leaf entry addresses must differ")
	}
	if p1[3]-p0[3] != entrySize {
		t.Fatalf("adjacent leaf entries %d bytes apart, want %d", p1[3]-p0[3], entrySize)
	}
}

// TestVanillaAgainstMapModel maps random VPNs and checks every walk
// against a model of the mapped leaf nodes: a walk reaches a leaf exactly
// when some VPN of its leaf node was mapped, and its entry addresses
// never change once mapped.
func TestVanillaAgainstMapModel(t *testing.T) {
	pt := NewVanilla(nil)
	leafNodes := map[core.VPN]bool{} // VPN >> 9 of every mapped VPN
	paths := map[core.VPN][4]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30000; i++ {
		vpn := core.VPN(rng.Intn(1 << 20))
		if rng.Intn(2) == 0 {
			pt.Map(vpn)
			leafNodes[vpn>>9] = true
		}
		path, ok := pt.Walk(vpn, nil)
		if ok != leafNodes[vpn>>9] {
			t.Fatalf("Walk(%#x) reached a leaf = %v, model %v", vpn, ok, leafNodes[vpn>>9])
		}
		if !ok {
			continue
		}
		if old, seen := paths[vpn]; seen && [4]uint64(path) != old {
			t.Fatalf("Walk(%#x) path moved from %x to %x", vpn, old, path)
		}
		paths[vpn] = [4]uint64(path)
	}
}

// TestMosaicSubpagesShareLeafEntry: a mosaic table is keyed by MVPN, so
// every sub-page of a mosaic page walks to the same leaf entry — the ToC.
func TestMosaicSubpagesShareLeafEntry(t *testing.T) {
	pt := NewMosaic(4, nil)
	pt.Map(5) // MVPN 1
	p5, ok := pt.Walk(5, nil)
	if !ok || len(p5) != 4 {
		t.Fatalf("Walk(5) ok=%v levels=%d", ok, len(p5))
	}
	for _, vpn := range []core.VPN{4, 6, 7} {
		p, ok := pt.Walk(vpn, nil)
		if !ok {
			t.Fatalf("sub-page %d of a mapped mosaic page does not walk", vpn)
		}
		for i := range p {
			if p[i] != p5[i] {
				t.Fatalf("sub-page %d walks level %d at %#x, sub-page 5 at %#x", vpn, i, p[i], p5[i])
			}
		}
	}
	p8, _ := pt.Walk(8, nil) // MVPN 2: the next leaf entry
	if p8[3]-p5[3] != entrySize {
		t.Fatalf("adjacent mosaic pages' entries %d bytes apart, want %d", p8[3]-p5[3], entrySize)
	}
}

func TestMosaicArityValidation(t *testing.T) {
	for _, arity := range []int{0, 3, -8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("arity %d should panic", arity)
				}
			}()
			NewMosaic(arity, nil)
		}()
	}
	if got := NewMosaic(64, nil).Arity(); got != 64 {
		t.Fatalf("Arity = %d", got)
	}
	if got := NewVanilla(nil).Arity(); got != 1 {
		t.Fatalf("vanilla Arity = %d", got)
	}
}

func TestBumpAllocatorPageAligned(t *testing.T) {
	a := BumpAllocator(1 << 30)
	p1 := a(512 * entrySize)
	p2 := a(512 * entrySize)
	if p1 != 1<<30 {
		t.Fatalf("first allocation at %#x", p1)
	}
	if p2-p1 != core.PageSize {
		t.Fatalf("4 KiB node consumed %d bytes", p2-p1)
	}
	p3 := a(100) // sub-page allocation still rounds up
	if p3-p2 != core.PageSize {
		t.Fatalf("small node not page aligned: %#x after %#x", p3, p2)
	}
}

func BenchmarkVanillaWalk(b *testing.B) {
	pt := NewVanilla(nil)
	for v := core.VPN(0); v < 1<<16; v++ {
		pt.Map(v)
	}
	path := make([]uint64, 0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, _ = pt.Walk(core.VPN(i&(1<<16-1)), path[:0])
	}
}

func BenchmarkMosaicWalk(b *testing.B) {
	pt := NewMosaic(4, nil)
	for v := core.VPN(0); v < 1<<16; v++ {
		pt.Map(v)
	}
	path := make([]uint64, 0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, _ = pt.Walk(core.VPN(i&(1<<16-1)), path[:0])
	}
}
