package tlb

import (
	"fmt"
	"math/bits"

	"mosaic/internal/core"
)

// Coalesced is a CoLT-style coalescing TLB (§5.2 of the paper; Pham et al.,
// MICRO '12): an entry covers a run of up to MaxRun pages that are both
// virtually AND physically contiguous. It is the contiguity-dependent
// competitor to mosaic pages — its reach gains are proportional to whatever
// physical contiguity the allocator happens to produce, which is plentiful
// under a fresh sequential allocator and nearly absent under fragmentation
// or hashed (mosaic) placement. Comparing it against the mosaic TLB
// quantifies the paper's core claim: mosaic buys reach without needing
// contiguity.
//
// Entries are indexed by the aligned run base (VPN / MaxRun), so a run
// never spans index groups — the hardware-practical variant of CoLT-SA.
type Coalesced struct {
	geom     Geometry
	maxRun   int
	runShift uint // log2(maxRun): a run base is indexed by base>>runShift
	tab      table
	entries  []coalescedEntry // by global slot
	stats    Stats
	// CoalescedFills counts fills whose run covered more than one page.
	coalescedFills uint64
	fills          uint64
	pagesCovered   uint64
}

type coalescedEntry struct {
	baseVPN core.VPN
	basePFN core.PFN
	// valid is a bitmap over the MaxRun aligned slots: bit i covers
	// baseVPN+i, mapped to basePFN+i.
	valid uint64
}

// NewCoalesced builds a coalescing TLB. maxRun must be a power of two ≤ 64
// (CoLT proposals use 4–8).
func NewCoalesced(geom Geometry, maxRun int) *Coalesced {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	if maxRun <= 0 || maxRun > 64 || maxRun&(maxRun-1) != 0 {
		panic(fmt.Sprintf("tlb: coalescing run length %d not a power of two in [1,64]", maxRun))
	}
	return &Coalesced{
		geom:     geom,
		maxRun:   maxRun,
		runShift: uint(bits.TrailingZeros(uint(maxRun))),
		tab:      newTable(geom.Sets(), geom.Ways),
		entries:  make([]coalescedEntry, geom.Entries),
	}
}

// Geometry returns the TLB geometry.
func (t *Coalesced) Geometry() Geometry { return t.geom }

// MaxRun is the maximum pages per entry.
func (t *Coalesced) MaxRun() int { return t.maxRun }

// Stats returns the event counters.
func (t *Coalesced) Stats() Stats { return t.stats }

// CoalescedFills counts fills that coalesced more than one translation.
func (t *Coalesced) CoalescedFills() uint64 { return t.coalescedFills }

// AvgRunLength is the mean pages covered per fill — the achieved
// coalescing factor.
func (t *Coalesced) AvgRunLength() float64 {
	if t.fills == 0 {
		return 0
	}
	return float64(t.pagesCovered) / float64(t.fills)
}

func (t *Coalesced) group(vpn core.VPN) (base core.VPN, off int) {
	return core.VPN(uint64(vpn) &^ uint64(t.maxRun-1)), int(uint64(vpn) & uint64(t.maxRun-1))
}

// set is the set index of a run base.
func (t *Coalesced) set(base core.VPN) int32 {
	return t.tab.setOf(uint64(base) >> t.runShift)
}

// Lookup translates vpn: a hit requires an entry for vpn's aligned group
// whose validity bitmap covers vpn's slot.
func (t *Coalesced) Lookup(vpn core.VPN) (core.PFN, bool) {
	base, off := t.group(vpn)
	si := t.set(base)
	g, ok := t.tab.lookup(si, uint64(base))
	if ok {
		t.tab.touch(si, g)
		if e := &t.entries[g]; e.valid&(1<<uint(off)) != 0 {
			t.stats.Hits++
			return e.basePFN.Add(uint64(off)), true
		}
	}
	t.stats.Misses++
	if ok {
		t.stats.SubMisses++
	} else {
		t.stats.EntryMisses++
	}
	return 0, false
}

// Repeat counts n lookups that hit without a probe: lookups of the page
// the last lookup hit or the last fill inserted; see Vanilla.Repeat.
func (t *Coalesced) Repeat(n uint64) { t.stats.Hits += n }

// Insert fills the translation for vpn→pfn and opportunistically coalesces:
// the walker hands over the translations of the whole aligned group (as
// CoLT's extended walker does), and every neighbour page whose PFN is at
// the matching offset from vpn's joins the entry. neighbours[i] is the PFN
// of base+i, with ok=false for unmapped pages; pass nil to insert without
// coalescing.
func (t *Coalesced) Insert(vpn core.VPN, pfn core.PFN, neighbours []NeighbourPFN) {
	base, off := t.group(vpn)
	e := coalescedEntry{baseVPN: base, valid: 1 << uint(off)}
	// Anchor the run so base maps to basePFN.
	e.basePFN = pfn.Sub(uint64(off))
	covered := uint64(1)
	for i, nb := range neighbours {
		if i == off || !nb.OK || i >= t.maxRun {
			continue
		}
		if nb.PFN == e.basePFN.Add(uint64(i)) {
			e.valid |= 1 << uint(i)
			covered++
		}
	}
	t.fills++
	t.pagesCovered += covered
	if covered > 1 {
		t.coalescedFills++
	}
	g, evicted := t.tab.claim(t.set(base), uint64(base))
	t.entries[g] = e
	if evicted {
		t.stats.Evictions++
	}
}

// NeighbourPFN is one group-slot translation offered for coalescing.
type NeighbourPFN struct {
	PFN core.PFN
	OK  bool
}

// Invalidate drops the coverage of vpn. If the entry covers other pages it
// survives with vpn's bit cleared; a now-empty entry is removed.
func (t *Coalesced) Invalidate(vpn core.VPN) bool {
	base, off := t.group(vpn)
	si := t.set(base)
	g, ok := t.tab.lookup(si, uint64(base))
	if !ok || t.entries[g].valid&(1<<uint(off)) == 0 {
		return false
	}
	e := &t.entries[g]
	e.valid &^= 1 << uint(off)
	if e.valid == 0 {
		t.tab.remove(si, g)
	}
	return true
}

// Flush invalidates every entry.
func (t *Coalesced) Flush() { t.tab.clear() }

// Len is the number of valid entries.
func (t *Coalesced) Len() int { return t.tab.len() }
