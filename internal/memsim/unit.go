package memsim

import (
	"fmt"

	"mosaic/internal/cache"
	"mosaic/internal/core"
	"mosaic/internal/invariant"
	"mosaic/internal/pagetable"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
)

// segmentCap bounds the pending segment, so its columns stay a fixed
// allocation however long a run of OS hits lasts: a default-size batch
// without faults runs as one segment.
const segmentCap = trace.DefaultBatchSize

// segment is the run of pending references: resolved by the OS layer, not
// yet run by any unit. Its references share one ASID and none of them
// faulted, so the page tables stay fixed while the units run it. The
// columns are parallel: reference i touched vpn[i] at physical address
// pa[i], a write when write[i].
type segment struct {
	asid  core.ASID
	vpn   []core.VPN
	pa    []uint64
	write []bool
}

// unit is one TLB design point. Each kind owns its TLB and fill path; the
// simulator drives every kind through these methods alone.
type unit interface {
	base() *unitBase
	// run feeds the segment through the unit in reference order: TLB
	// lookup, a walk and fill on a miss, then the data access.
	run(s *Simulator, seg *segment)
	// invalidate shoots down the mapping of one ASID-tagged VPN.
	invalidate(tagged core.VPN)
	// flush invalidates every entry.
	flush()
	stats() tlb.Stats
	result() Result
	// audit checks every valid entry against the page tables.
	audit(s *Simulator, r *invariant.Report)
}

// unitBase is what every unit kind shares: the design point, the private
// caches and walk cache, and the walk counters.
type unitBase struct {
	spec       TLBSpec
	caches     *cache.Hierarchy
	pwc        *walkCache
	walks      uint64
	walkRefs   uint64
	pwcHits    uint64
	walkCycles uint64
}

func (b *unitBase) base() *unitBase { return b }

// newUnit builds the unit kind b.spec selects around b.
func newUnit(b unitBase) unit {
	switch spec := b.spec; {
	case spec.Coalesce != 0:
		return &coalescedUnit{unitBase: b, tlb: tlb.NewCoalesced(spec.Geometry, spec.Coalesce),
			neighbours: make([]tlb.NeighbourPFN, spec.Coalesce)}
	case spec.Arity == 0:
		return &vanillaUnit{unitBase: b, tlb: tlb.NewVanilla(spec.Geometry)}
	default:
		return &mosaicUnit{unitBase: b, tlb: tlb.NewMosaic(spec.Geometry, spec.Arity)}
	}
}

// access sends reference i's data access through the unit's caches.
func (b *unitBase) access(seg *segment, i int) {
	if b.caches != nil {
		b.caches.Access(seg.pa[i], seg.write[i])
	}
}

// walkTraffic accounts one walk's page-table reads and sends them through
// the walk cache and the caches.
func (b *unitBase) walkTraffic(s *Simulator, path []uint64) {
	b.walks++
	if b.pwc != nil && len(path) > 1 {
		// The MMU walk cache absorbs upper-level reads; the leaf entry is
		// always fetched from memory (its PTE changes on every remap).
		kept := path[:0]
		for _, pa := range path[:len(path)-1] {
			if b.pwc.lookupInsert(pa) {
				b.pwcHits++
			} else {
				kept = append(kept, pa)
			}
		}
		kept = append(kept, path[len(path)-1])
		path = kept
	}
	b.walkRefs += uint64(len(path))
	s.path = path[:0]
	if b.caches != nil {
		for _, pa := range path {
			b.walkCycles += uint64(b.caches.Access(pa, false))
		}
	}
}

// result is the shared part of a unit's Result.
func (b *unitBase) result(st tlb.Stats) Result {
	r := Result{Spec: b.spec, TLB: st, Walks: b.walks, WalkAccesses: b.walkRefs, WalkCacheHits: b.pwcHits}
	if b.caches != nil {
		r.AMAT = b.caches.AMAT()
		r.TotalCycles = b.caches.TotalCycles()
		r.WalkCycles = b.walkCycles
		for _, l := range b.caches.Levels() {
			r.CacheStats = append(r.CacheStats, l.Stats())
		}
	}
	return r
}

// vpnMask strips the ASID from a tagged VPN.
const vpnMask = 1<<asidTagShift - 1

// vanillaUnit is a conventional TLB walking the ASID's radix page table.
type vanillaUnit struct {
	unitBase
	tlb *tlb.Vanilla
}

func (u *vanillaUnit) run(s *Simulator, seg *segment) {
	tag := taggedVPN(seg.asid, 0)
	var pt *pagetable.Vanilla // resolved on the segment's first miss
	for i, vpn := range seg.vpn {
		if _, hit := u.tlb.Lookup(vpn | tag); !hit {
			if pt == nil {
				pt = s.vanillaPT(seg.asid)
			}
			u.fill(s, pt, vpn|tag, vpn)
		}
		u.access(seg, i)
	}
}

// fill walks the page table for vpn and installs the translation under
// its ASID-tagged key.
func (u *vanillaUnit) fill(s *Simulator, pt *pagetable.Vanilla, tagged, vpn core.VPN) {
	pfn, ok, path := pt.Walk(vpn, s.path[:0])
	u.walkTraffic(s, path)
	if !ok {
		//lint:ignore nopanic the page table was updated on fault before any TLB lookup, so a resident VPN always walks
		panic(fmt.Sprintf("memsim: vanilla walk failed for resident VPN %#x", vpn))
	}
	u.tlb.Insert(tagged, pfn)
}

func (u *vanillaUnit) invalidate(tagged core.VPN) { u.tlb.Invalidate(tagged) }
func (u *vanillaUnit) flush()                     { u.tlb.Flush() }
func (u *vanillaUnit) stats() tlb.Stats           { return u.tlb.Stats() }
func (u *vanillaUnit) result() Result             { return u.unitBase.result(u.tlb.Stats()) }

func (u *vanillaUnit) audit(s *Simulator, r *invariant.Report) {
	label := u.spec.Label()
	u.tlb.Range(func(key uint64, pfn core.PFN) {
		asid := core.ASID(key >> asidTagShift)
		vpn := core.VPN(key & vpnMask)
		pt, ok := s.vanillaPTs[asid]
		if !r.Checkf(ok, "memsim.tlb-coherence",
			"%s: valid entry for ASID %d, which has no page table", label, asid) {
			return
		}
		got, mapped := pt.Get(vpn)
		if !r.Checkf(mapped, "memsim.tlb-coherence",
			"%s: valid entry for ASID %d VPN %#x, which the page table does not map", label, asid, vpn) {
			return
		}
		r.Checkf(got == pfn, "memsim.tlb-coherence",
			"%s: entry for ASID %d VPN %#x holds PFN %d, page table says %d", label, asid, vpn, pfn, got)
	})
}

// mosaicUnit is a mosaic TLB walking the ASID's mosaic page table of its
// arity, filling whole ToCs.
type mosaicUnit struct {
	unitBase
	tlb *tlb.Mosaic
}

func (u *mosaicUnit) run(s *Simulator, seg *segment) {
	tag := taggedVPN(seg.asid, 0)
	var pt *pagetable.Mosaic // resolved on the segment's first miss
	for i, vpn := range seg.vpn {
		if _, hit := u.tlb.Lookup(vpn | tag); !hit {
			if pt == nil {
				pt = s.mosaicPT(seg.asid, u.spec.Arity)
			}
			u.fill(s, pt, vpn|tag, vpn)
		}
		u.access(seg, i)
	}
}

// fill walks the whole ToC of vpn's mosaic page and installs it.
func (u *mosaicUnit) fill(s *Simulator, pt *pagetable.Mosaic, tagged, vpn core.VPN) {
	toc, ok, path := pt.WalkToC(vpn, s.path[:0])
	u.walkTraffic(s, path)
	if !ok {
		//lint:ignore nopanic the mosaic page table was updated on fault before any TLB lookup, so a resident VPN always walks
		panic(fmt.Sprintf("memsim: mosaic walk failed for resident VPN %#x", vpn))
	}
	u.tlb.Insert(tagged, toc)
}

func (u *mosaicUnit) invalidate(tagged core.VPN) { u.tlb.InvalidateSub(tagged) }
func (u *mosaicUnit) flush()                     { u.tlb.Flush() }
func (u *mosaicUnit) stats() tlb.Stats           { return u.tlb.Stats() }
func (u *mosaicUnit) result() Result             { return u.unitBase.result(u.tlb.Stats()) }

func (u *mosaicUnit) audit(s *Simulator, r *invariant.Report) {
	label, arity := u.spec.Label(), u.spec.Arity
	u.tlb.Range(func(key uint64, toc tlb.ToC) {
		for off, c := range toc {
			if c == core.CPFNInvalid {
				continue
			}
			tagged := core.BaseVPN(core.MVPN(key), arity, off)
			asid := core.ASID(uint64(tagged) >> asidTagShift)
			vpn := core.VPN(uint64(tagged) & vpnMask)
			pt, ok := s.mosaicPTs[ptKey{asid: asid, arity: arity}]
			if !r.Checkf(ok, "memsim.tlb-coherence",
				"%s: valid sub-entry for ASID %d, which has no page table", label, asid) {
				continue
			}
			got, mapped := pt.Get(vpn)
			if !r.Checkf(mapped, "memsim.tlb-coherence",
				"%s: valid sub-entry for ASID %d VPN %#x, which the page table does not map", label, asid, vpn) {
				continue
			}
			r.Checkf(got == c, "memsim.tlb-coherence",
				"%s: sub-entry for ASID %d VPN %#x holds CPFN %d, page table says %d", label, asid, vpn, c, got)
		}
	})
}

// coalescedUnit is a CoLT TLB walking the ASID's radix page table and
// coalescing the fill with its aligned neighbours.
type coalescedUnit struct {
	unitBase
	tlb *tlb.Coalesced
	// neighbours is the fill buffer, reused on every miss
	// (Coalesced.Insert does not retain it).
	neighbours []tlb.NeighbourPFN
}

func (u *coalescedUnit) run(s *Simulator, seg *segment) {
	tag := taggedVPN(seg.asid, 0)
	var pt *pagetable.Vanilla // resolved on the segment's first miss
	for i, vpn := range seg.vpn {
		if _, hit := u.tlb.Lookup(vpn | tag); !hit {
			if pt == nil {
				pt = s.vanillaPT(seg.asid)
			}
			u.fill(s, pt, vpn|tag, vpn)
		}
		u.access(seg, i)
	}
}

func (u *coalescedUnit) fill(s *Simulator, pt *pagetable.Vanilla, tagged, vpn core.VPN) {
	pfn, ok, path := pt.Walk(vpn, s.path[:0])
	u.walkTraffic(s, path)
	if !ok {
		//lint:ignore nopanic the page table was updated on fault before any TLB lookup, so a resident VPN always walks
		panic(fmt.Sprintf("memsim: coalescing walk failed for resident VPN %#x", vpn))
	}
	// CoLT's walker inspects the neighbouring PTEs in the same leaf cache
	// line it already fetched, so offering the aligned group for
	// coalescing costs no extra memory traffic. The ASID tag is
	// group-aligned (it lives far above the run bits), so tagging does not
	// split runs.
	nb := u.neighbours
	base := core.VPN(uint64(vpn) &^ uint64(len(nb)-1))
	for i := range nb {
		npfn, nok := pt.Get(base + core.VPN(i))
		nb[i] = tlb.NeighbourPFN{PFN: npfn, OK: nok}
	}
	u.tlb.Insert(tagged, pfn, nb)
}

func (u *coalescedUnit) invalidate(tagged core.VPN) { u.tlb.Invalidate(tagged) }
func (u *coalescedUnit) flush()                     { u.tlb.Flush() }
func (u *coalescedUnit) stats() tlb.Stats           { return u.tlb.Stats() }

func (u *coalescedUnit) result() Result {
	r := u.unitBase.result(u.tlb.Stats())
	r.CoalescingFactor = u.tlb.AvgRunLength()
	return r
}

// audit checks nothing: a CoLT run is rebuilt from neighbouring PTEs on
// every fill and has no single page-table entry to compare against.
func (u *coalescedUnit) audit(*Simulator, *invariant.Report) {}
