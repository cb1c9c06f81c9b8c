package tlb

import (
	"fmt"
	"math/bits"

	"mosaic/internal/core"
)

// Vanilla is a conventional TLB: each entry maps one VPN to one PFN, as in
// the paper's baseline x86 configuration.
type Vanilla struct {
	geom  Geometry
	tab   table
	pfn   []core.PFN // by global slot
	stats Stats
}

// NewVanilla builds a vanilla TLB.
func NewVanilla(geom Geometry) *Vanilla {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	return &Vanilla{
		geom: geom,
		tab:  newTable(geom.Sets(), geom.Ways),
		pfn:  make([]core.PFN, geom.Entries),
	}
}

// Geometry returns the TLB geometry.
func (t *Vanilla) Geometry() Geometry { return t.geom }

// Stats returns the event counters accumulated so far.
func (t *Vanilla) Stats() Stats { return t.stats }

// Lookup translates vpn, counting a hit or a miss.
func (t *Vanilla) Lookup(vpn core.VPN) (core.PFN, bool) {
	si := t.tab.setOf(uint64(vpn))
	if g, ok := t.tab.lookup(si, uint64(vpn)); ok {
		t.tab.touch(si, g)
		t.stats.Hits++
		return t.pfn[g], true
	}
	t.stats.Misses++
	t.stats.EntryMisses++
	return 0, false
}

// Insert fills the translation after a page-table walk, evicting LRU within
// the set if needed.
func (t *Vanilla) Insert(vpn core.VPN, pfn core.PFN) {
	g, evicted := t.tab.claim(t.tab.setOf(uint64(vpn)), uint64(vpn))
	t.pfn[g] = pfn
	if evicted {
		t.stats.Evictions++
	}
}

// Invalidate drops the entry for vpn (TLB shootdown), reporting whether it
// was present.
func (t *Vanilla) Invalidate(vpn core.VPN) bool {
	return t.tab.invalidate(t.tab.setOf(uint64(vpn)), uint64(vpn))
}

// Len is the number of valid entries.
func (t *Vanilla) Len() int { return t.tab.len() }

// Reach is the memory covered by a full TLB, in bytes.
func (t *Vanilla) Reach() uint64 { return uint64(t.geom.Entries) * core.PageSize }

// Range calls fn for every valid entry, set by set in slot order, without
// affecting recency or the hit/miss counters. The key is the value Insert
// was called with (in memsim, the ASID-tagged VPN). Range exists for the
// invariant checkers, which audit TLB contents against the page tables.
func (t *Vanilla) Range(fn func(key uint64, pfn core.PFN)) {
	t.tab.each(func(tag uint64, g int32) { fn(tag, t.pfn[g]) })
}

// Flush invalidates every entry (a full TLB flush, as on a non-PCID
// context switch).
func (t *Vanilla) Flush() { t.tab.clear() }

// ToC is a mosaic TLB entry payload: the table of contents of one mosaic
// page — one CPFN per sub-page (Figure 2).
type ToC []core.CPFN

// Mosaic is a mosaic TLB: entries are indexed by MVPN and hold a ToC of
// arity CPFNs with per-sub-page validity. Replacement evicts whole mosaic
// entries (the paper's model manages "its own space using LRU to evict TLB
// entries for an entire mosaic page"); invalidation of a sub-page clears
// only that CPFN.
type Mosaic struct {
	geom  Geometry
	arity int
	shift uint // log2(arity): a VPN splits into MVPN vpn>>shift and offset vpn&(arity-1)
	tab   table
	// arena holds every slot's ToC: global slot g owns the arity-long
	// window starting at g<<shift, so a fill copies into place and never
	// allocates.
	arena []core.CPFN
	stats Stats
}

// NewMosaic builds a mosaic TLB with the given entry geometry and arity
// (sub-pages per entry). The paper varies arity over powers of two from 4
// to 64.
func NewMosaic(geom Geometry, arity int) *Mosaic {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	if arity <= 0 || arity&(arity-1) != 0 {
		panic(fmt.Sprintf("tlb: arity %d is not a positive power of two", arity))
	}
	return &Mosaic{
		geom:  geom,
		arity: arity,
		shift: uint(bits.TrailingZeros(uint(arity))),
		tab:   newTable(geom.Sets(), geom.Ways),
		arena: make([]core.CPFN, geom.Entries*arity),
	}
}

// Geometry returns the TLB geometry.
func (t *Mosaic) Geometry() Geometry { return t.geom }

// Arity is the number of sub-pages per entry.
func (t *Mosaic) Arity() int { return t.arity }

// Stats returns the event counters accumulated so far.
func (t *Mosaic) Stats() Stats { return t.stats }

// split is core.MosaicPage at the validated arity: a shift and a mask.
func (t *Mosaic) split(vpn core.VPN) (mvpn uint64, off int) {
	return uint64(vpn) >> t.shift, int(uint64(vpn) & uint64(t.arity-1))
}

// toc is global slot g's ToC window of the arena.
func (t *Mosaic) toc(g int32) ToC {
	lo := int(g) << t.shift
	return t.arena[lo : lo+t.arity : lo+t.arity]
}

// Lookup translates vpn. A hit requires both the mosaic entry to be present
// and the sub-page's CPFN to be valid; the two miss flavours are counted
// separately (Stats.EntryMisses vs Stats.SubMisses).
func (t *Mosaic) Lookup(vpn core.VPN) (core.CPFN, bool) {
	mvpn, off := t.split(vpn)
	si := t.tab.setOf(mvpn)
	g, ok := t.tab.lookup(si, mvpn)
	if !ok {
		t.stats.Misses++
		t.stats.EntryMisses++
		return core.CPFNInvalid, false
	}
	t.tab.touch(si, g)
	if c := t.arena[int(g)<<t.shift+off]; c != core.CPFNInvalid {
		t.stats.Hits++
		return c, true
	}
	t.stats.Misses++
	t.stats.SubMisses++
	return core.CPFNInvalid, false
}

// Insert fills the whole ToC for vpn's mosaic page after a walk. The walker
// obtains the full leaf ToC, so all currently-mapped sub-pages become
// valid at once. The ToC is copied into the slot's own storage. Insert
// panics if the ToC length does not match the arity.
func (t *Mosaic) Insert(vpn core.VPN, toc ToC) {
	if len(toc) != t.arity {
		panic(fmt.Sprintf("tlb: ToC length %d, want arity %d", len(toc), t.arity))
	}
	mvpn, _ := t.split(vpn)
	g, evicted := t.tab.claim(t.tab.setOf(mvpn), mvpn)
	copy(t.toc(g), toc)
	if evicted {
		t.stats.Evictions++
	}
}

// InvalidateSub clears only vpn's CPFN within its mosaic entry, if present
// (§3.1: "our TLB model only invalidates the sub-page's entry within the
// larger mosaic page's ToC"). It reports whether a valid sub-entry was
// cleared.
func (t *Mosaic) InvalidateSub(vpn core.VPN) bool {
	mvpn, off := t.split(vpn)
	g, ok := t.tab.lookup(t.tab.setOf(mvpn), mvpn)
	if !ok {
		return false
	}
	c := &t.arena[int(g)<<t.shift+off]
	if *c == core.CPFNInvalid {
		return false
	}
	*c = core.CPFNInvalid
	return true
}

// InvalidateEntry drops the whole mosaic entry containing vpn.
func (t *Mosaic) InvalidateEntry(vpn core.VPN) bool {
	mvpn, _ := t.split(vpn)
	return t.tab.invalidate(t.tab.setOf(mvpn), mvpn)
}

// Len is the number of valid entries (whole mosaic pages).
func (t *Mosaic) Len() int { return t.tab.len() }

// Reach is the memory covered by a full TLB with fully-populated ToCs: a
// factor of arity more than a vanilla TLB of equal entry count.
func (t *Mosaic) Reach() uint64 {
	return uint64(t.geom.Entries) * uint64(t.arity) * core.PageSize
}

// Flush invalidates every entry.
func (t *Mosaic) Flush() { t.tab.clear() }

// Range calls fn for every valid entry, set by set in slot order, without
// affecting recency or the hit/miss counters. The key is the MVPN the entry
// was inserted under (in memsim, derived from the ASID-tagged VPN); the ToC
// is the live payload and must not be mutated. Range exists for the
// invariant checkers, which audit TLB contents against the page tables.
func (t *Mosaic) Range(fn func(key uint64, toc ToC)) {
	t.tab.each(func(tag uint64, g int32) { fn(tag, t.toc(g)) })
}

// InvalidToC returns a fresh all-invalid ToC of the TLB's arity.
func (t *Mosaic) InvalidToC() ToC {
	toc := make(ToC, t.arity)
	for i := range toc {
		toc[i] = core.CPFNInvalid
	}
	return toc
}
