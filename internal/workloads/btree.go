package workloads

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"mosaic/internal/core"
	"mosaic/internal/rng"
	"mosaic/internal/trace"
)

// BTreeConfig parameterizes the BTree workload.
type BTreeConfig struct {
	// TargetBytes sizes the tree. Ignored if Keys is set.
	TargetBytes uint64
	// Keys is the number of keys in the index.
	Keys int
	// Lookups is the number of random point lookups (default: Keys/2).
	Lookups int
	// Seed drives key generation and lookup order.
	Seed uint64
}

// BTree is the paper's second workload: random point lookups on a B+ tree
// index. Nodes are page-sized (4 KiB), so every level of a descent touches
// a different page — classic index behaviour with high virtual locality
// inside a node and none between nodes.
type BTree struct {
	cfg   BTreeConfig
	arena *Arena
	root  *bnode
	keys  []uint64
	depth int
}

// B+ tree node layout in the simulated heap (4 KiB per node):
//
//	offset 0:    header (count, flags)            16 bytes
//	offset 16:   keys[0..254)                     254 × 8 = 2032 bytes
//	offset 2048: children[0..255) or values       255 × 8 = 2040 bytes
//
// 16 + 2032 + 2040 = 4088 ≤ 4096.
const (
	btNodeSize    = core.PageSize
	btMaxKeys     = 254
	btHeaderSize  = 16
	btKeysOffset  = btHeaderSize
	btChildOffset = btKeysOffset + btMaxKeys*8
)

type bnode struct {
	va       uint64
	keys     []uint64
	children []*bnode // internal nodes
	values   []uint64 // leaves
	next     *bnode   // leaf chain
	leaf     bool
}

func (n *bnode) keyAddr(i int) uint64   { return n.va + btKeysOffset + uint64(i)*8 }
func (n *bnode) childAddr(i int) uint64 { return n.va + btChildOffset + uint64(i)*8 }

// NewBTree builds the workload. The tree itself is bulk-loaded during Run
// (emitting the build's reference stream), matching an index-build-then-
// query benchmark.
func NewBTree(cfg BTreeConfig) *BTree {
	if cfg.Keys == 0 {
		if cfg.TargetBytes == 0 {
			cfg.TargetBytes = 32 << 20
		}
		// Leaves hold ~255 keys in 4 KiB; internal overhead is ≈1/256.
		cfg.Keys = int(cfg.TargetBytes / btNodeSize * btMaxKeys)
	}
	if cfg.Keys < btMaxKeys {
		cfg.Keys = btMaxKeys
	}
	if cfg.Lookups == 0 {
		cfg.Lookups = cfg.Keys / 2
	}
	return &BTree{cfg: cfg, arena: NewArena(0)}
}

// Name implements Workload.
func (t *BTree) Name() string { return "btree" }

// FootprintBytes implements Workload. Before Run the value is an estimate;
// after Run it is exact.
func (t *BTree) FootprintBytes() uint64 {
	if t.root != nil {
		return t.arena.Size()
	}
	leaves := (t.cfg.Keys + btMaxKeys - 1) / btMaxKeys
	return uint64(leaves) * btNodeSize * 257 / 256
}

// Depth is the tree height after Run.
func (t *BTree) Depth() int { return t.depth }

// Run implements Workload: bulk-load the index, then perform random point
// lookups.
func (t *BTree) Run(b *trace.Batcher) {
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
		//lint:ignore nopanic lookups draw from t.keys, all of which were bulk-loaded into the tree
		panic(fmt.Sprintf("btree: %d/%d lookups found their key", hits, t.cfg.Lookups))
	}
}

// build bulk-loads the tree from sorted random keys, writing every slot of
// every node to the simulated heap.
func (t *BTree) build(sink *trace.Batcher, rng *rand.Rand) {
	keys := drawKeys(t.cfg.Keys, rng.Uint64)
	t.keys = keys

	newNode := func(leaf bool) *bnode {
		return &bnode{va: t.arena.Alloc(btNodeSize, btNodeSize), leaf: leaf}
	}

	// Leaf level.
	var level []*bnode
	var prev *bnode
	for start := 0; start < len(keys) && !sink.Done(); start += btMaxKeys {
		end := min(start+btMaxKeys, len(keys))
		n := newNode(true)
		for i, k := range keys[start:end] {
			sink.Access(n.keyAddr(i), true)
			n.keys = append(n.keys, k)
			sink.Access(n.childAddr(i), true)
			n.values = append(n.values, k^0xABCD)
		}
		if prev != nil {
			prev.next = n
		}
		prev = n
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

// drawKeys returns n distinct values from draw, sorted ascending. It takes
// the first n distinct values draw yields, calling draw exactly as often
// as a seen-set loop would, so the caller's generator ends in the same
// state. The common case, no repeat among the first n draws, needs only a
// sort; a map is built only once a repeat has been drawn.
func drawKeys(n int, draw func() uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = draw()
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
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
	slices.Sort(keys)
	return keys
}

func minKey(n *bnode) uint64 {
	for !n.leaf {
		n = n.children[0]
	}
	return n.keys[0]
}

// Lookup performs one point lookup — a binary-search probe sequence in
// each node plus the child-pointer read — emitting every node slot it
// reads. The caller flushes b.
func (t *BTree) Lookup(sink *trace.Batcher, key uint64) (uint64, bool) {
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

// RangeScan reads count consecutive keys starting at the smallest key ≥
// from, following the leaf chain (used by the database example). The
// caller flushes b.
func (t *BTree) RangeScan(sink *trace.Batcher, from uint64, count int) []uint64 {
	n := t.root
	for !n.leaf {
		lo, hi := 0, len(n.keys)
		for lo < hi {
			mid := (lo + hi) / 2
			sink.Access(n.keyAddr(mid), false)
			if n.keys[mid] <= from {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		sink.Access(n.childAddr(lo), false)
		n = n.children[lo]
	}
	var out []uint64
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= from })
	for n != nil && len(out) < count {
		for ; i < len(n.keys) && len(out) < count; i++ {
			sink.Access(n.keyAddr(i), false)
			sink.Access(n.childAddr(i), false)
			out = append(out, n.values[i])
		}
		n = n.next
		i = 0
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
