// Package pagetable implements the radix-tree page tables of §3.1 / Figure 5.
//
// Mosaic is compatible with any page-table organization; like the paper's
// prototype we keep the conventional multi-level radix tree and modify only
// the leaves: a vanilla leaf entry stores a PFN, a mosaic leaf entry stores
// a table of contents (one CPFN per sub-page of a mosaic page).
//
// A Table holds only the tree's nodes. Each node occupies a (simulated)
// physical page, and Walk reports the physical address of the entry read at
// every level, so the memory-system simulator can send page-table-walker
// traffic through the cache hierarchy exactly as gem5 does. The values the
// leaf entries hold are not stored here: they are the OS layer's page
// records (internal/vm), where an aligned window of CPFNs is exactly a
// mosaic leaf's ToC, so the walker reads the entries' contents from those
// records and the two can never disagree.
package pagetable

import (
	"fmt"
	"math/bits"

	"mosaic/internal/core"
)

// entrySize is the size of one page-table entry in bytes.
const entrySize = 8

// PAAllocator hands out physical base addresses for newly allocated
// page-table nodes.
type PAAllocator func(size uint64) uint64

// BumpAllocator returns a PAAllocator that carves node frames sequentially
// from base — a simple stand-in for the kernel's page-table page allocator.
func BumpAllocator(base uint64) PAAllocator {
	next := base
	return func(size uint64) uint64 {
		pa := next
		next += (size + core.PageSize - 1) &^ (core.PageSize - 1)
		return pa
	}
}

// DefaultLevels is the x86-64-style 4-level split (9 bits per level) used
// by the paper's prototype, covering DefaultVPNBits-bit VPNs.
var DefaultLevels = []int{9, 9, 9, 9}

// DefaultVPNBits is the VPN width DefaultLevels index: 36 bits, a 48-bit
// virtual address space.
const DefaultVPNBits = 36

// Table is the node structure of one radix page table: a vanilla table is
// keyed by VPN, a mosaic table by MVPN (the VPN over the arity).
type Table struct {
	levelBits []int
	shifts    []uint
	keyShift  uint // log2(arity); 0 for a vanilla table
	allocPA   PAAllocator
	root      *node
}

// node is one table node. Leaf-level nodes have no children: their
// entries' contents live in the OS layer's page records.
type node struct {
	pa       uint64
	children []*node
}

// NewVanilla creates a vanilla page table. levelBits may be nil for
// DefaultLevels; allocPA may be nil for a bump allocator at 1<<40.
func NewVanilla(levelBits []int, allocPA PAAllocator) *Table {
	return newTable(0, levelBits, allocPA)
}

// NewMosaic creates a mosaic page table for the given arity. levelBits
// index the MVPN (not the VPN); nil selects DefaultLevels.
func NewMosaic(arity int, levelBits []int, allocPA PAAllocator) *Table {
	if arity <= 0 || arity&(arity-1) != 0 {
		panic(fmt.Sprintf("pagetable: arity %d is not a positive power of two", arity))
	}
	return newTable(uint(bits.TrailingZeros(uint(arity))), levelBits, allocPA)
}

func newTable(keyShift uint, levelBits []int, allocPA PAAllocator) *Table {
	if levelBits == nil {
		levelBits = DefaultLevels
	}
	if len(levelBits) < 1 {
		panic("pagetable: need at least one level")
	}
	total := 0
	for _, b := range levelBits {
		if b <= 0 || b > 20 {
			panic(fmt.Sprintf("pagetable: level width %d out of range", b))
		}
		total += b
	}
	if total > 57 {
		panic(fmt.Sprintf("pagetable: %d index bits exceed the key space", total))
	}
	if allocPA == nil {
		allocPA = BumpAllocator(1 << 40)
	}
	t := &Table{levelBits: levelBits, keyShift: keyShift, allocPA: allocPA}
	// Precompute the right-shift for each level's index field.
	t.shifts = make([]uint, len(levelBits))
	shift := 0
	for i := len(levelBits) - 1; i >= 0; i-- {
		t.shifts[i] = uint(shift)
		shift += levelBits[i]
	}
	t.root = t.newNode(0)
	return t
}

func (t *Table) newNode(level int) *node {
	fanout := 1 << t.levelBits[level]
	n := &node{pa: t.allocPA(uint64(fanout * entrySize))}
	if level < len(t.levelBits)-1 {
		n.children = make([]*node, fanout)
	}
	return n
}

func (t *Table) index(key uint64, level int) int {
	return int(key>>t.shifts[level]) & (1<<t.levelBits[level] - 1)
}

// Arity is the number of sub-pages one leaf entry maps: 1 for a vanilla
// table.
func (t *Table) Arity() int { return 1 << t.keyShift }

// Levels is the number of radix levels (walk memory accesses).
func (t *Table) Levels() int { return len(t.levelBits) }

// Map creates the nodes on vpn's path that do not exist yet, top down —
// what the kernel does when it installs a mapping. Nodes are never freed
// (a real kernel frees them lazily), so an entry's address is fixed once
// mapped.
func (t *Table) Map(vpn core.VPN) {
	key := uint64(vpn) >> t.keyShift
	n := t.root
	for level := 0; level < len(t.levelBits)-1; level++ {
		idx := t.index(key, level)
		if n.children[idx] == nil {
			n.children[idx] = t.newNode(level + 1)
		}
		n = n.children[idx]
	}
}

// Walk appends the physical address of the entry read at each level for
// vpn to path (even for the levels reached before a missing node, as a
// real walker would) and reports whether the walk reached a leaf entry.
func (t *Table) Walk(vpn core.VPN, path []uint64) ([]uint64, bool) {
	key := uint64(vpn) >> t.keyShift
	n := t.root
	last := len(t.levelBits) - 1
	for level := 0; level < last; level++ {
		idx := t.index(key, level)
		path = append(path, n.pa+uint64(idx*entrySize))
		n = n.children[idx]
		if n == nil {
			return path, false
		}
	}
	return append(path, n.pa+uint64(t.index(key, last)*entrySize)), true
}
