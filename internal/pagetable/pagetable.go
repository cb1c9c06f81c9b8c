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

// The tree has the x86-64-style shape of the paper's prototype: Levels
// levels of levelBits index bits each, covering VPNBits-bit keys (a
// 48-bit virtual address space for a vanilla table).
const (
	Levels    = 4
	levelBits = 9
	fanout    = 1 << levelBits
	VPNBits   = Levels * levelBits
)

// Table is the node structure of one radix page table: a vanilla table is
// keyed by VPN, a mosaic table by MVPN (the VPN over the arity).
type Table struct {
	keyShift uint // log2(arity); 0 for a vanilla table
	allocPA  PAAllocator
	root     *node
}

// node is one table node. Leaf-level nodes have no children: their
// entries' contents live in the OS layer's page records.
type node struct {
	pa       uint64
	children *[fanout]*node
}

// NewVanilla creates a vanilla page table. allocPA may be nil for a bump
// allocator at 1<<40.
func NewVanilla(allocPA PAAllocator) *Table {
	return newTable(0, allocPA)
}

// NewMosaic creates a mosaic page table for the given arity; its levels
// index the MVPN (not the VPN).
func NewMosaic(arity int, allocPA PAAllocator) *Table {
	if arity <= 0 || arity&(arity-1) != 0 {
		panic(fmt.Sprintf("pagetable: arity %d is not a positive power of two", arity))
	}
	return newTable(uint(bits.TrailingZeros(uint(arity))), allocPA)
}

func newTable(keyShift uint, allocPA PAAllocator) *Table {
	if allocPA == nil {
		allocPA = BumpAllocator(1 << 40)
	}
	t := &Table{keyShift: keyShift, allocPA: allocPA}
	t.root = t.newNode(0)
	return t
}

func (t *Table) newNode(level int) *node {
	n := &node{pa: t.allocPA(fanout * entrySize)}
	if level < Levels-1 {
		n.children = new([fanout]*node)
	}
	return n
}

// index is key's entry index in a node at the given level.
func index(key uint64, level int) int {
	return int(key>>((Levels-1-level)*levelBits)) & (fanout - 1)
}

// Arity is the number of sub-pages one leaf entry maps: 1 for a vanilla
// table.
func (t *Table) Arity() int { return 1 << t.keyShift }

// Map creates the nodes on vpn's path that do not exist yet, top down —
// what the kernel does when it installs a mapping. Nodes are never freed
// (a real kernel frees them lazily), so an entry's address is fixed once
// mapped.
func (t *Table) Map(vpn core.VPN) {
	key := uint64(vpn) >> t.keyShift
	n := t.root
	for level := 0; level < Levels-1; level++ {
		idx := index(key, level)
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
	for level := 0; level < Levels-1; level++ {
		idx := index(key, level)
		path = append(path, n.pa+uint64(idx*entrySize))
		n = n.children[idx]
		if n == nil {
			return path, false
		}
	}
	return append(path, n.pa+uint64(index(key, Levels-1)*entrySize)), true
}
