// Package pagetable implements the radix-tree page tables of §3.1 / Figure 5.
//
// Mosaic is compatible with any page-table organization; like the paper's
// prototype we keep the conventional multi-level radix tree and modify only
// the leaves: a vanilla leaf entry stores a PFN, a mosaic leaf entry stores
// a table of contents (one CPFN per sub-page of a mosaic page).
//
// Each table node occupies a (simulated) physical page; Walk reports the
// physical address of the entry read at every level, so the memory-system
// simulator can send page-table-walker traffic through the cache hierarchy
// exactly as gem5 does.
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

// radix is the shared multi-level structure; leaves hold T.
type radix[T any] struct {
	levelBits []int
	shifts    []uint
	allocPA   PAAllocator
	root      *node[T]
	leaves    int
}

type node[T any] struct {
	pa       uint64
	children []*node[T]
	values   []T
	present  []bool
}

func newRadix[T any](levelBits []int, allocPA PAAllocator) *radix[T] {
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
	r := &radix[T]{levelBits: levelBits, allocPA: allocPA}
	// Precompute the right-shift for each level's index field.
	r.shifts = make([]uint, len(levelBits))
	shift := 0
	for i := len(levelBits) - 1; i >= 0; i-- {
		r.shifts[i] = uint(shift)
		shift += levelBits[i]
	}
	r.root = r.newNode(0)
	return r
}

func (r *radix[T]) newNode(level int) *node[T] {
	fanout := 1 << r.levelBits[level]
	n := &node[T]{pa: r.allocPA(uint64(fanout * entrySize))}
	if level == len(r.levelBits)-1 {
		n.values = make([]T, fanout)
		n.present = make([]bool, fanout)
	} else {
		n.children = make([]*node[T], fanout)
	}
	return n
}

func (r *radix[T]) index(key uint64, level int) int {
	return int(key>>r.shifts[level]) & (1<<r.levelBits[level] - 1)
}

// set installs value at key, creating intermediate nodes. It returns a
// pointer to the stored value.
func (r *radix[T]) set(key uint64, value T) *T {
	n := r.root
	for level := 0; level < len(r.levelBits)-1; level++ {
		idx := r.index(key, level)
		if n.children[idx] == nil {
			n.children[idx] = r.newNode(level + 1)
		}
		n = n.children[idx]
	}
	idx := r.index(key, len(r.levelBits)-1)
	if !n.present[idx] {
		n.present[idx] = true
		r.leaves++
	}
	n.values[idx] = value
	return &n.values[idx]
}

// lookup finds key without recording a walk path.
func (r *radix[T]) lookup(key uint64) (*T, bool) {
	n := r.root
	for level := 0; level < len(r.levelBits)-1; level++ {
		n = n.children[r.index(key, level)]
		if n == nil {
			return nil, false
		}
	}
	idx := r.index(key, len(r.levelBits)-1)
	if !n.present[idx] {
		return nil, false
	}
	return &n.values[idx], true
}

// walk finds key, appending the physical address of the entry read at each
// level to path (even for the levels reached before a translation failure,
// as a real walker would). It returns the value, presence, and path.
func (r *radix[T]) walk(key uint64, path []uint64) (*T, bool, []uint64) {
	n := r.root
	for level := 0; level < len(r.levelBits)-1; level++ {
		idx := r.index(key, level)
		path = append(path, n.pa+uint64(idx*entrySize))
		n = n.children[idx]
		if n == nil {
			return nil, false, path
		}
	}
	idx := r.index(key, len(r.levelBits)-1)
	path = append(path, n.pa+uint64(idx*entrySize))
	if !n.present[idx] {
		return nil, false, path
	}
	return &n.values[idx], true, path
}

// unset removes key, reporting whether it was present. Empty intermediate
// nodes are retained (as in a real kernel, which frees them lazily).
func (r *radix[T]) unset(key uint64) bool {
	n := r.root
	for level := 0; level < len(r.levelBits)-1; level++ {
		n = n.children[r.index(key, level)]
		if n == nil {
			return false
		}
	}
	idx := r.index(key, len(r.levelBits)-1)
	if !n.present[idx] {
		return false
	}
	n.present[idx] = false
	var zero T
	n.values[idx] = zero
	r.leaves--
	return true
}

// DefaultLevels is the x86-64-style 4-level split (9 bits per level) used
// by the paper's prototype, covering 36-bit VPNs.
var DefaultLevels = []int{9, 9, 9, 9}

// Vanilla is a conventional radix page table mapping VPN → PFN.
type Vanilla struct {
	r *radix[core.PFN]
}

// NewVanilla creates a vanilla page table. levelBits may be nil for
// DefaultLevels; allocPA may be nil for a bump allocator at 1<<40.
func NewVanilla(levelBits []int, allocPA PAAllocator) *Vanilla {
	if levelBits == nil {
		levelBits = DefaultLevels
	}
	return &Vanilla{r: newRadix[core.PFN](levelBits, allocPA)}
}

// Levels is the number of radix levels (walk memory accesses).
func (t *Vanilla) Levels() int { return len(t.r.levelBits) }

// Len is the number of mapped pages.
func (t *Vanilla) Len() int { return t.r.leaves }

// Set maps vpn to pfn.
func (t *Vanilla) Set(vpn core.VPN, pfn core.PFN) { t.r.set(uint64(vpn), pfn) }

// Unset removes vpn's mapping.
func (t *Vanilla) Unset(vpn core.VPN) bool { return t.r.unset(uint64(vpn)) }

// Get translates vpn without a walk path.
func (t *Vanilla) Get(vpn core.VPN) (core.PFN, bool) {
	p, ok := t.r.lookup(uint64(vpn))
	if !ok {
		return 0, false
	}
	return *p, true
}

// Walk translates vpn, appending the per-level entry addresses to path.
func (t *Vanilla) Walk(vpn core.VPN, path []uint64) (core.PFN, bool, []uint64) {
	p, ok, path := t.r.walk(uint64(vpn), path)
	if !ok {
		return 0, false, path
	}
	return *p, true, path
}

// ToC is a mosaic page-table leaf value: one CPFN per sub-page plus a
// per-sub-page present bit (the prototype "stores permission, present,
// accessed, and dirty bits in the page table for each encoded physical
// page"; only the present bit affects translation, so that is what we
// model).
type ToC struct {
	CPFNs []core.CPFN
}

// Mosaic is a radix page table whose leaves map MVPN → ToC (Figure 5).
type Mosaic struct {
	r     *radix[ToC]
	arity int
	shift uint // log2(arity), validated once by NewMosaic
}

// NewMosaic creates a mosaic page table for the given arity. levelBits
// index the MVPN (not the VPN); nil selects DefaultLevels.
func NewMosaic(arity int, levelBits []int, allocPA PAAllocator) *Mosaic {
	if arity <= 0 || arity&(arity-1) != 0 {
		panic(fmt.Sprintf("pagetable: arity %d is not a positive power of two", arity))
	}
	if levelBits == nil {
		levelBits = DefaultLevels
	}
	return &Mosaic{r: newRadix[ToC](levelBits, allocPA), arity: arity, shift: uint(bits.TrailingZeros(uint(arity)))}
}

// split is core.MosaicPage at the validated arity: the MVPN by shift and
// the sub-page offset by mask.
func (t *Mosaic) split(vpn core.VPN) (mvpn uint64, off int) {
	return uint64(vpn) >> t.shift, int(uint64(vpn) & uint64(t.arity-1))
}

// Arity is the number of sub-pages per mosaic page.
func (t *Mosaic) Arity() int { return t.arity }

// Levels is the number of radix levels.
func (t *Mosaic) Levels() int { return len(t.r.levelBits) }

// Len is the number of mosaic pages with at least one mapped sub-page.
func (t *Mosaic) Len() int { return t.r.leaves }

// SetCPFN maps vpn's sub-page to cpfn, creating the ToC if needed.
func (t *Mosaic) SetCPFN(vpn core.VPN, cpfn core.CPFN) {
	mvpn, off := t.split(vpn)
	toc, ok := t.r.lookup(mvpn)
	if !ok {
		toc = t.r.set(mvpn, ToC{CPFNs: newInvalidCPFNs(t.arity)})
	}
	toc.CPFNs[off] = cpfn
}

// ClearCPFN invalidates vpn's sub-page mapping, reporting whether it was
// mapped. The ToC itself stays (other sub-pages keep their mappings).
func (t *Mosaic) ClearCPFN(vpn core.VPN) bool {
	mvpn, off := t.split(vpn)
	toc, ok := t.r.lookup(mvpn)
	if !ok || toc.CPFNs[off] == core.CPFNInvalid {
		return false
	}
	toc.CPFNs[off] = core.CPFNInvalid
	return true
}

// Get returns vpn's CPFN without a walk path.
func (t *Mosaic) Get(vpn core.VPN) (core.CPFN, bool) {
	mvpn, off := t.split(vpn)
	toc, ok := t.r.lookup(mvpn)
	if !ok || toc.CPFNs[off] == core.CPFNInvalid {
		return core.CPFNInvalid, false
	}
	return toc.CPFNs[off], true
}

// WalkToC fetches the whole ToC for vpn's mosaic page, appending per-level
// entry addresses to path. The returned slice aliases the leaf; callers
// must copy it if they retain it (the TLB's Insert copies).
func (t *Mosaic) WalkToC(vpn core.VPN, path []uint64) ([]core.CPFN, bool, []uint64) {
	mvpn, _ := t.split(vpn)
	toc, ok, path := t.r.walk(mvpn, path)
	if !ok {
		return nil, false, path
	}
	return toc.CPFNs, true, path
}

func newInvalidCPFNs(arity int) []core.CPFN {
	c := make([]core.CPFN, arity)
	for i := range c {
		c[i] = core.CPFNInvalid
	}
	return c
}
