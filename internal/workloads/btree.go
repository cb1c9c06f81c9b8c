package workloads

import (
	"math/bits"
	"slices"

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
//
// The tree is bulk-loaded from distinct sorted keys, and its nodes are
// allocated in order from a page-aligned arena: the leaves left to right,
// then each internal level, the root last. A level is therefore fully
// described by its first node's address and its node count, and a lookup
// takes every probe from its key's rank alone (see lookup), so the tree
// keeps no node objects and no key values.
type BTree struct {
	cfg    BTreeConfig
	arena  *Arena
	levels []btLevel // leaves first, root last; nil until Run
}

// btLevel is one level of the tree: nodes consecutive pages from base.
type btLevel struct {
	base  uint64
	nodes int
}

// B+ tree node layout in the simulated heap (4 KiB per node):
//
//	offset 0:    header (count, flags)            16 bytes
//	offset 16:   keys[0..254)                     254 × 8 = 2032 bytes
//	offset 2048: children[0..255) or values       255 × 8 = 2040 bytes
//
// 16 + 2032 + 2040 = 4088 ≤ 4096. A leaf holds up to btMaxKeys keys with
// their values; an internal node up to btFanout children, separated by
// each child's smallest key but the first's.
const (
	btNodeSize    = core.PageSize
	btMaxKeys     = 254
	btFanout      = btMaxKeys + 1
	btHeaderSize  = 16
	btKeysOffset  = btHeaderSize
	btChildOffset = btKeysOffset + btMaxKeys*8
	// btMaxDepth bounds the height: 254·255^7 leaf slots exceed any int
	// key count.
	btMaxDepth = 8
)

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
// after Run it is exact: the nodes the build allocated before the budget
// ran out.
func (t *BTree) FootprintBytes() uint64 {
	if t.levels != nil {
		return t.arena.Size()
	}
	leaves := (t.cfg.Keys + btMaxKeys - 1) / btMaxKeys
	return uint64(leaves) * btNodeSize * 257 / 256
}

// Run implements Workload: bulk-load the index, then look up keys of
// uniformly random rank. The keys are drawn as an index build would draw
// them, which leaves rnd where the lookups start; the stream depends only
// on how many there are.
func (t *BTree) Run(b *trace.Batcher) {
	rnd := rng.Derive(t.cfg.Seed, 0x6274726565) // "btree"
	drawKeys(t.cfg.Keys, rnd.Uint64)
	t.build(b)
	for i := 0; i < t.cfg.Lookups && !b.Done(); i++ {
		t.lookup(b, rnd.Intn(t.cfg.Keys))
	}
}

// node allocates the next page-sized node and adds it to l.
func (t *BTree) node(l *btLevel) uint64 {
	va := t.arena.Alloc(btNodeSize, btNodeSize)
	if l.nodes == 0 {
		l.base = va
	}
	l.nodes++
	return va
}

// build bulk-loads the tree, writing every slot of every node to the
// simulated heap. The leaf level stops once the budget is spent; an
// internal level, once started, is written whole.
func (t *BTree) build(sink *trace.Batcher) {
	n := t.cfg.Keys
	var leaves btLevel
	for start := 0; start < n && !sink.Done(); start += btMaxKeys {
		va := t.node(&leaves)
		for i := range uint64(min(btMaxKeys, n-start)) {
			sink.Access(va+btKeysOffset+i*8, true)
			sink.Access(va+btChildOffset+i*8, true)
		}
	}
	t.levels = []btLevel{leaves}

	for below := leaves; below.nodes > 1 && !sink.Done(); {
		var level btLevel
		for first := 0; first < below.nodes; first += btFanout {
			va := t.node(&level)
			sink.Access(va+btChildOffset, true)
			for i := uint64(1); i < uint64(min(btFanout, below.nodes-first)); i++ {
				sink.Access(va+btKeysOffset+(i-1)*8, true)
				sink.Access(va+btChildOffset+i*8, true)
			}
		}
		t.levels = append(t.levels, level)
		below = level
	}
}

// lookup emits the probes of a point lookup of the key of rank r, which
// the bulk load placed in leaf r/254 at slot r%254. The keys are distinct
// and sorted, so no key value is needed to steer the binary searches: at
// the leaf, keys[mid] <= key exactly when mid <= r%254, and at an
// internal node, whose separators are its children's smallest keys,
// sep[mid] <= key exactly when mid < c, c being the index of the child
// on the key's path.
func (t *BTree) lookup(sink *trace.Batcher, r int) {
	leaf, slot := r/btMaxKeys, r%btMaxKeys
	// child[h] is the child taken at level h: the path's level-(h-1) node
	// index, modulo the fanout.
	var child [btMaxDepth]int
	for h, j := 1, leaf; h < len(t.levels); h++ {
		child[h] = j % btFanout
		j /= btFanout
	}
	j := 0 // the path's node index on the current level
	for h := len(t.levels) - 1; h > 0; h-- {
		c := child[h]
		va := t.levels[h].base + uint64(j)*btNodeSize
		children := min(btFanout, t.levels[h-1].nodes-j*btFanout)
		search(sink, va, children-1, c)
		sink.Access(va+btChildOffset+uint64(c)*8, false)
		j = j*btFanout + c
	}
	va := t.levels[0].base + uint64(leaf)*btNodeSize
	search(sink, va, min(btMaxKeys, t.cfg.Keys-leaf*btMaxKeys), slot+1)
	sink.Access(va+btChildOffset+uint64(slot)*8, false)
}

// search emits the key reads of a binary search for the searched key's
// upper bound among the first keys key slots of the node at va, given
// that slot mid holds a key at most the searched one exactly when
// mid < ub.
func search(sink *trace.Batcher, va uint64, keys, ub int) {
	lo, hi := 0, keys
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		sink.Access(va+btKeysOffset+uint64(mid)*8, false)
		if mid < ub {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
}

// drawKeys draws keys as an index build would, keeping n distinct values:
// it calls draw exactly as often as a loop that draws until it holds n
// distinct values, so the caller's generator ends in the same state. The
// stream needs only that count, not the keys. In the common case, no
// repeat among the first n draws, that is n draws; a set of the values
// drawn is built only once a repeat has been drawn.
func drawKeys(n int, draw func() uint64) {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = draw()
	}
	if distinct(keys) {
		return
	}
	seen := make(map[uint64]bool, n)
	for _, k := range keys {
		seen[k] = true
	}
	for have := len(seen); have < n; {
		if k := draw(); !seen[k] {
			seen[k] = true
			have++
		}
	}
}

// distinct reports whether keys holds no value twice. A bitmap over the
// keys' top bits, 16 to 32 prefixes per key, finds the prefixes held more
// than once, and only the keys under those are sorted and compared: for
// uniform keys a few percent of them.
func distinct(keys []uint64) bool {
	shift := 64 - min(24, max(6, bits.Len(uint(len(keys)))+4)) // 2^(64-shift) prefixes
	once := make([]uint64, 1<<(64-shift)/64)
	twice := make([]uint64, len(once))
	for _, k := range keys {
		p := k >> shift
		bit := uint64(1) << (p % 64)
		twice[p/64] |= once[p/64] & bit
		once[p/64] |= bit
	}
	var shared []uint64
	for _, k := range keys {
		if p := k >> shift; twice[p/64]&(1<<(p%64)) != 0 {
			shared = append(shared, k)
		}
	}
	slices.Sort(shared)
	for i := 1; i < len(shared); i++ {
		if shared[i] == shared[i-1] {
			return false
		}
	}
	return true
}
