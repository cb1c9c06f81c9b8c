package workloads

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/rng"
	"mosaic/internal/trace"
)

// refBTree is the reference model for BTree: a pointer tree of node
// objects holding their keys and values, bulk-loaded from the same keys
// and searched by key comparison, as an index implementation would. BTree
// must emit the same reference stream and end with the same footprint.
type refBTree struct {
	cfg   BTreeConfig
	arena *Arena
	root  *bnode
	keys  []uint64
	depth int
}

type bnode struct {
	va       uint64
	keys     []uint64
	children []*bnode // internal nodes
	values   []uint64 // leaves
	leaf     bool
}

func (n *bnode) keyAddr(i int) uint64   { return n.va + btKeysOffset + uint64(i)*8 }
func (n *bnode) childAddr(i int) uint64 { return n.va + btChildOffset + uint64(i)*8 }

// newRefBTree sizes the model exactly as NewBTree sizes the workload.
func newRefBTree(cfg BTreeConfig) *refBTree {
	return &refBTree{cfg: NewBTree(cfg).cfg, arena: NewArena(0)}
}

func (t *refBTree) Name() string { return "btree" }

// FootprintBytes is exact after Run, which the model is only asked after.
func (t *refBTree) FootprintBytes() uint64 { return t.arena.Size() }

// Run bulk-loads the tree, then looks up random keys, each of which must
// be found.
func (t *refBTree) Run(b *trace.Batcher) {
	rnd := rng.Derive(t.cfg.Seed, 0x6274726565) // "btree"
	t.build(b, rnd)
	hits := 0
	for i := 0; i < t.cfg.Lookups; i++ {
		if b.Done() {
			return
		}
		key := t.keys[rnd.Intn(len(t.keys))]
		if _, ok := t.Lookup(b, key); ok {
			hits++
		}
	}
	if hits != t.cfg.Lookups {
		panic(fmt.Sprintf("btree: %d/%d lookups found their key", hits, t.cfg.Lookups))
	}
}

// build bulk-loads the tree from sorted random keys, writing every slot of
// every node to the simulated heap.
func (t *refBTree) build(sink *trace.Batcher, rng *rand.Rand) {
	keys := sortedKeys(t.cfg.Keys, rng.Uint64)
	t.keys = keys

	newNode := func(leaf bool) *bnode {
		return &bnode{va: t.arena.Alloc(btNodeSize, btNodeSize), leaf: leaf}
	}

	// Leaf level.
	var level []*bnode
	for start := 0; start < len(keys) && !sink.Done(); start += btMaxKeys {
		end := min(start+btMaxKeys, len(keys))
		n := newNode(true)
		for i, k := range keys[start:end] {
			sink.Access(n.keyAddr(i), true)
			n.keys = append(n.keys, k)
			sink.Access(n.childAddr(i), true)
			n.values = append(n.values, k^0xABCD)
		}
		level = append(level, n)
	}
	t.depth = 1

	// Internal levels: each parent spans up to btMaxKeys+1 children, keyed
	// by each child's smallest key (except the first).
	for len(level) > 1 && !sink.Done() {
		var up []*bnode
		for start := 0; start < len(level); start += btMaxKeys + 1 {
			end := min(start+btMaxKeys+1, len(level))
			n := newNode(false)
			for i, child := range level[start:end] {
				if i > 0 {
					sink.Access(n.keyAddr(i-1), true)
					n.keys = append(n.keys, minKey(child))
				}
				sink.Access(n.childAddr(i), true)
				n.children = append(n.children, child)
			}
			up = append(up, n)
		}
		level = up
		t.depth++
	}
	t.root = level[0]
}

func minKey(n *bnode) uint64 {
	for !n.leaf {
		n = n.children[0]
	}
	return n.keys[0]
}

// Lookup performs one point lookup — a binary-search probe sequence in
// each node plus the child-pointer read — emitting every node slot it
// reads.
func (t *refBTree) Lookup(sink *trace.Batcher, key uint64) (uint64, bool) {
	n := t.root
	for {
		// Binary search for the upper bound of key among n.keys.
		lo, hi := 0, len(n.keys)
		for lo < hi {
			mid := (lo + hi) / 2
			sink.Access(n.keyAddr(mid), false)
			if n.keys[mid] <= key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if n.leaf {
			// lo is one past the matching position if present.
			if lo > 0 && n.keys[lo-1] == key {
				sink.Access(n.childAddr(lo-1), false)
				return n.values[lo-1], true
			}
			return 0, false
		}
		sink.Access(n.childAddr(lo), false)
		n = n.children[lo]
	}
}

// recordCapped runs w under a budget of max references (0 = none) and
// returns its stream.
func recordCapped(w Workload, max uint64) []trace.Ref {
	var out []trace.Ref
	b := trace.NewBatcher(visit(func(va uint64, write bool) {
		out = append(out, trace.MakeRef(va, write))
	}), max)
	w.Run(b)
	b.Flush()
	return out
}

// checkBTreeStream runs BTree and the reference model on cfg under a
// budget of max references and fails unless both emit the same stream
// and report the same footprint after the run.
func checkBTreeStream(t *testing.T, cfg BTreeConfig, max uint64) {
	t.Helper()
	bt, ref := NewBTree(cfg), newRefBTree(cfg)
	got, want := recordCapped(bt, max), recordCapped(ref, max)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("%+v, budget %d: streams differ at reference %d of %d/%d", cfg, max, i, len(got), len(want))
	}
	if g, w := bt.FootprintBytes(), ref.FootprintBytes(); g != w {
		t.Fatalf("%+v, budget %d: footprint %d, reference model %d", cfg, max, g, w)
	}
	if len(bt.levels) != ref.depth {
		t.Fatalf("%+v, budget %d: depth %d, reference model %d", cfg, max, len(bt.levels), ref.depth)
	}
}

// firstDiff is the first index at which a and b differ, or -1.
func firstDiff(a, b []trace.Ref) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestBTreeStreamMatchesReference checks the rank-addressed tree against
// the pointer tree at the key counts where a level fills or spills — one
// full leaf, one key past it, one full two-level tree and one key past
// that, which needs a third level — and at budgets that end inside the
// leaf build, inside an internal level and inside the lookups.
func TestBTreeStreamMatchesReference(t *testing.T) {
	const full2 = btMaxKeys * (btMaxKeys + 1) // the largest two-level tree
	for _, keys := range []int{btMaxKeys, btMaxKeys + 1, full2, full2 + 1, 3*full2 + 1000} {
		leafRefs := uint64(2 * keys)
		for _, max := range []uint64{
			0,              // the whole run
			1000,           // inside the leaf build
			leafRefs + 1,   // inside the first internal level
			leafRefs + 600, // inside or past the first internal level
			3 * leafRefs,   // inside the lookups
		} {
			cfg := BTreeConfig{Keys: keys, Lookups: keys/2 + 1, Seed: uint64(keys)}
			t.Run(fmt.Sprintf("keys%d/max%d", keys, max), func(t *testing.T) {
				checkBTreeStream(t, cfg, max)
			})
		}
	}
}

// FuzzBTreeStream checks the rank-addressed tree against the pointer tree
// at arbitrary key counts, lookup counts, seeds and budgets.
func FuzzBTreeStream(f *testing.F) {
	f.Add(uint32(254), uint16(10), uint64(1), uint32(0))
	f.Add(uint32(254*255+1), uint16(500), uint64(2), uint32(129_600))
	f.Add(uint32(70_000), uint16(3000), uint64(3), uint32(1000))
	f.Fuzz(func(t *testing.T, keys uint32, lookups uint16, seed uint64, max uint32) {
		checkBTreeStream(t, BTreeConfig{Keys: int(keys % 200_000), Lookups: int(lookups), Seed: seed}, uint64(max%1_000_000))
	})
}

func TestBTreeLookupsFindKeys(t *testing.T) {
	bt := newRefBTree(BTreeConfig{Keys: 10000, Lookups: 100, Seed: 3})
	runAll(bt, discard) // panics internally if any lookup misses
	if bt.depth < 2 {
		t.Errorf("depth = %d, want a multi-level tree", bt.depth)
	}
	// Every key is found with its value.
	b := trace.NewBatcher(discard, 0)
	for _, k := range bt.keys {
		if v, ok := bt.Lookup(b, k); !ok || v != k^0xABCD {
			t.Fatalf("Lookup(%#x) = %#x, %v", k, v, ok)
		}
	}
	// A lookup of an absent key must miss.
	if _, ok := bt.Lookup(b, 0xDEADBEEF00000001); ok && !slices.Contains(bt.keys, 0xDEADBEEF00000001) {
		t.Error("lookup of absent key succeeded")
	}
}

func TestBTreeNodesPageAligned(t *testing.T) {
	bt := NewBTree(BTreeConfig{Keys: 3 * btMaxKeys * (btMaxKeys + 1), Lookups: 1, Seed: 3})
	runAll(bt, discard)
	if len(bt.levels) != 3 {
		t.Fatalf("depth = %d, want 3", len(bt.levels))
	}
	next := uint64(DefaultHeapBase)
	for h, l := range bt.levels {
		if l.base%core.PageSize != 0 || l.base != next {
			t.Fatalf("level %d starts at %#x, want the page-aligned %#x", h, l.base, next)
		}
		next += uint64(l.nodes) * btNodeSize
	}
	if top := bt.levels[len(bt.levels)-1]; top.nodes != 1 {
		t.Fatalf("top level has %d nodes, want one root", top.nodes)
	}
	if got := bt.FootprintBytes(); got != next-DefaultHeapBase {
		t.Fatalf("footprint %d, want the %d bytes of the nodes", got, next-DefaultHeapBase)
	}
}

// sortedKeys returns n distinct values from draw, sorted ascending: the
// keys the model's bulk load needs. It takes the first n distinct values
// draw yields, calling draw exactly as often as drawKeys does. The common
// case, no repeat among the first n draws, needs only a sort; a map is
// built only once a repeat has been drawn.
func sortedKeys(n int, draw func() uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = draw()
	}
	keys = slices.Compact(sortKeys(keys))
	if len(keys) == n {
		return keys
	}
	seen := make(map[uint64]bool, n)
	for _, k := range keys {
		seen[k] = true
	}
	for len(keys) < n {
		if k := draw(); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return sortKeys(keys)
}

// sortKeys returns keys sorted ascending. One counting pass over the top
// bits spreads them, in order, over len(keys)/8 to len(keys)/4 buckets;
// uniform random keys leave a handful in each, which an insertion sort
// orders. A bucket that a skewed draw overfills is sorted with slices.Sort.
func sortKeys(keys []uint64) []uint64 {
	if len(keys) < 2 {
		return keys
	}
	shift := min(64, 67-bits.Len(uint(len(keys)))) // 2^(64-shift) buckets
	ends := make([]int, 1<<(64-shift)+1)
	for _, k := range keys {
		ends[k>>shift+1]++
	}
	for i := 1; i < len(ends); i++ {
		ends[i] += ends[i-1]
	}
	// ends[b] is where bucket b starts; it advances to the bucket's end.
	out := make([]uint64, len(keys))
	for _, k := range keys {
		b := k >> shift
		out[ends[b]] = k
		ends[b]++
	}
	start := 0
	for _, end := range ends[:len(ends)-1] {
		bucket := out[start:end]
		if len(bucket) > 32 {
			slices.Sort(bucket)
		} else {
			for i := 1; i < len(bucket); i++ {
				for j := i; j > 0 && bucket[j] < bucket[j-1]; j-- {
					bucket[j], bucket[j-1] = bucket[j-1], bucket[j]
				}
			}
		}
		start = end
	}
	return out
}
