package memsim

import (
	"fmt"

	"mosaic/internal/cache"
	"mosaic/internal/core"
	"mosaic/internal/invariant"
	"mosaic/internal/pagetable"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
	"mosaic/internal/vm"
)

// segmentCap bounds the pending segment, so its columns stay a fixed
// allocation however long it grows: a default-size batch without
// evictions runs as one segment.
const segmentCap = trace.DefaultBatchSize

// segment is the run of pending references: resolved by the OS layer, not
// yet run by any unit. Its references share one ASID and no page left
// memory during it, so each page's record holds, as of each reference's
// clock, what it held when the reference ran. The columns are parallel:
// reference i ran at access clock clock+i and touched vpn[i] at physical
// address pa[i], a write when write[i]. repeat[i] marks a reference to the
// page of reference i-1, which hits in every unit (see the package doc),
// and repeats counts them. Only the same VPN repeats: another page of the
// same mosaic page or CoLT group can be absent from the entry.
type segment struct {
	asid    core.ASID
	clock   uint64
	vpn     []core.VPN
	pa      []uint64
	write   []bool
	repeat  []bool
	repeats uint64
}

// unit is one TLB design point. Each kind owns its TLB and fill path; the
// simulator drives every kind through these methods alone.
type unit interface {
	base() *unitBase
	// run feeds the segment through the unit in reference order: TLB
	// lookup, a walk and fill on a miss, then the data access. A repeat
	// skips the lookup and counts as a hit.
	run(s *Simulator, seg *segment)
	// invalidate shoots down the mapping of one ASID-tagged VPN.
	invalidate(tagged core.VPN)
	// flush invalidates every entry.
	flush()
	stats() tlb.Stats
	result() Result
	// audit checks every valid entry against the OS's page records.
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
		t := tlb.NewMosaic(spec.Geometry, spec.Arity)
		return &mosaicUnit{unitBase: b, tlb: t, toc: t.InvalidToC()}
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

// walk walks pt for vpn and accounts the walk's traffic.
func (b *unitBase) walk(s *Simulator, pt *pagetable.Table, vpn core.VPN) {
	path, ok := pt.Walk(vpn, s.path[:0])
	b.walkTraffic(s, path)
	if !ok {
		//lint:ignore nopanic a page becomes resident only by a fault, which maps its nodes in every table before any unit runs a reference to it, so a resident VPN always walks
		panic(fmt.Sprintf("memsim: %s walk failed for resident VPN %#x", b.spec.Label(), vpn))
	}
}

// vanillaUnit is a conventional TLB walking the ASID's radix page table.
type vanillaUnit struct {
	unitBase
	tlb *tlb.Vanilla
}

func (u *vanillaUnit) run(s *Simulator, seg *segment) {
	tag := taggedVPN(seg.asid, 0)
	var pt *pagetable.Table // resolved on the segment's first miss
	for i, vpn := range seg.vpn {
		if seg.repeat[i] {
			u.access(seg, i)
			continue
		}
		if _, hit := u.tlb.Lookup(vpn | tag); !hit {
			if pt == nil {
				pt = s.pt(seg.asid, 0)
			}
			// The leaf entry is the reference's own record, whose frame
			// the OS layer resolved into pa.
			u.walk(s, pt, vpn)
			u.tlb.Insert(vpn|tag, core.PFN(seg.pa[i]>>core.PageShift))
		}
		u.access(seg, i)
	}
	u.tlb.Repeat(seg.repeats)
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
		got, mapped := s.os.Translate(asid, vpn)
		if !r.Check(mapped) {
			r.Failf("memsim.tlb-coherence",
				"%s: valid entry for ASID %d VPN %#x, which the OS does not map", label, asid, vpn)
			return
		}
		if !r.Check(got == pfn) {
			r.Failf("memsim.tlb-coherence",
				"%s: entry for ASID %d VPN %#x holds PFN %d, the OS maps %d", label, asid, vpn, pfn, got)
		}
	})
}

// mosaicUnit is a mosaic TLB walking the ASID's mosaic page table of its
// arity, filling whole ToCs.
type mosaicUnit struct {
	unitBase
	tlb *tlb.Mosaic
	// toc is the fill buffer for a ToC that needs masking, reused on
	// every such miss (Mosaic.Insert copies it).
	toc tlb.ToC
}

func (u *mosaicUnit) run(s *Simulator, seg *segment) {
	tag := taggedVPN(seg.asid, 0)
	var pt *pagetable.Table // resolved on the segment's first miss
	var as *vm.AddressSpace
	for i, vpn := range seg.vpn {
		if seg.repeat[i] {
			u.access(seg, i)
			continue
		}
		if _, hit := u.tlb.Lookup(vpn | tag); !hit {
			if pt == nil {
				pt, as = s.pt(seg.asid, u.spec.Arity), s.os.Space(seg.asid)
			}
			u.walk(s, pt, vpn)
			// The leaf is the ToC: the window of records of vpn's mosaic
			// page, as of this reference.
			toc := as.Window(vpn, len(u.toc)).CPFNs(seg.clock+uint64(i), u.toc)
			u.tlb.Insert(vpn|tag, toc)
		}
		u.access(seg, i)
	}
	u.tlb.Repeat(seg.repeats)
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
			got, mapped := s.os.CPFNFor(asid, vpn)
			if !r.Check(mapped) {
				r.Failf("memsim.tlb-coherence",
					"%s: valid sub-entry for ASID %d VPN %#x, which the OS does not map", label, asid, vpn)
				continue
			}
			if !r.Check(got == c) {
				r.Failf("memsim.tlb-coherence",
					"%s: sub-entry for ASID %d VPN %#x holds CPFN %d, the OS maps %d", label, asid, vpn, c, got)
			}
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
	var pt *pagetable.Table // resolved on the segment's first miss
	var as *vm.AddressSpace
	for i, vpn := range seg.vpn {
		if seg.repeat[i] {
			u.access(seg, i)
			continue
		}
		if _, hit := u.tlb.Lookup(vpn | tag); !hit {
			if pt == nil {
				pt, as = s.pt(seg.asid, 0), s.os.Space(seg.asid)
			}
			u.walk(s, pt, vpn)
			// CoLT's walker inspects the neighbouring PTEs in the same
			// leaf cache line it already fetched, so offering the aligned
			// group for coalescing costs no extra memory traffic. The
			// neighbours are read as of this reference. The ASID tag is
			// group-aligned (it lives far above the run bits), so tagging
			// does not split runs.
			nb := u.neighbours
			w, clock := as.Window(vpn, len(nb)), seg.clock+uint64(i)
			for j := range nb {
				npfn, ok := w.PFN(j, clock)
				nb[j] = tlb.NeighbourPFN{PFN: npfn, OK: ok}
			}
			u.tlb.Insert(vpn|tag, core.PFN(seg.pa[i]>>core.PageShift), nb)
		}
		u.access(seg, i)
	}
	u.tlb.Repeat(seg.repeats)
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
