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

// segment is the stretch of pending references: resolved by the OS layer,
// not yet run by any unit. Its references share one ASID and no page left
// memory during it, so each page's record holds, as of each reference's
// clock, what it held when the reference ran. Its rows are runs: row i is
// n[i] back-to-back references to vpn[i], whose frame is pfn[i]. The
// segment's first reference ran at access clock clock, and refs counts its
// references, so a row's first reference ran at clock plus the references
// of the rows before it. Only the row's first reference needs a lookup
// (see the package doc): another page of the same mosaic page or CoLT
// group can be absent from the entry, so a row is one VPN. With caches,
// reference k touched physical address pa[k], a write when write[k].
type segment struct {
	asid  core.ASID
	clock uint64
	vpn   []core.VPN
	pfn   []core.PFN
	n     []uint64
	refs  uint64
	pa    []uint64
	write []bool
}

// unit is one TLB design point. Each kind owns its TLB and fill path; the
// simulator drives every kind through these methods alone.
type unit interface {
	base() *unitBase
	// run feeds the segment through the unit in reference order: for each
	// row a TLB lookup, a walk and fill on a miss, then the row's data
	// accesses. The row's other references count as hits.
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

// access sends the data accesses of the n references from reference at
// through the unit's caches, which must be on.
func (b *unitBase) access(seg *segment, at, n uint64) {
	for k := at; k < at+n; k++ {
		b.caches.Access(seg.pa[k], seg.write[k])
	}
}

// walk accounts one page-table walk for vpn. Without page tables nothing
// reads the walk's addresses (see the package doc), and it reads
// pagetable.Levels entries. Otherwise it walks the ASID's table of the
// unit's arity and sends the reads through the walk cache and the caches.
func (b *unitBase) walk(s *Simulator, asid core.ASID, vpn core.VPN) {
	b.walks++
	if s.pts == nil {
		b.walkRefs += pagetable.Levels
		return
	}
	path, ok := s.pt(asid, b.spec.Arity).Walk(vpn, s.path[:0])
	if !ok {
		//lint:ignore nopanic a page becomes resident only by a fault, which maps its nodes in every table before any unit runs a reference to it, so a resident VPN always walks
		panic(fmt.Sprintf("memsim: %s walk failed for resident VPN %#x", b.spec.Label(), vpn))
	}
	if b.pwc != nil {
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
	var at uint64 // the row's first reference
	for i, vpn := range seg.vpn {
		if _, hit := u.tlb.Lookup(vpn | tag); !hit {
			// The leaf entry is the row's own record, whose frame the OS
			// layer resolved into pfn.
			u.walk(s, seg.asid, vpn)
			u.tlb.Insert(vpn|tag, seg.pfn[i])
		}
		if u.caches != nil {
			u.access(seg, at, seg.n[i])
		}
		at += seg.n[i]
	}
	u.tlb.Repeat(seg.refs - uint64(len(seg.vpn)))
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
	var as *vm.AddressSpace // resolved on the segment's first miss
	var at uint64           // the row's first reference
	for i, vpn := range seg.vpn {
		if _, hit := u.tlb.Lookup(vpn | tag); !hit {
			if as == nil {
				as = s.os.Space(seg.asid)
			}
			u.walk(s, seg.asid, vpn)
			// The leaf is the ToC: the window of records of vpn's mosaic
			// page, as of the row's first reference.
			toc := as.Window(vpn, len(u.toc)).CPFNs(seg.clock+at, u.toc)
			u.tlb.Insert(vpn|tag, toc)
		}
		if u.caches != nil {
			u.access(seg, at, seg.n[i])
		}
		at += seg.n[i]
	}
	u.tlb.Repeat(seg.refs - uint64(len(seg.vpn)))
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
	var as *vm.AddressSpace // resolved on the segment's first miss
	var at uint64           // the row's first reference
	for i, vpn := range seg.vpn {
		if _, hit := u.tlb.Lookup(vpn | tag); !hit {
			if as == nil {
				as = s.os.Space(seg.asid)
			}
			u.walk(s, seg.asid, vpn)
			// CoLT's walker inspects the neighbouring PTEs in the same
			// leaf cache line it already fetched, so offering the aligned
			// group for coalescing costs no extra memory traffic. The
			// neighbours are read as of the row's first reference. The
			// ASID tag is group-aligned (it lives far above the run bits),
			// so tagging does not split runs.
			nb := u.neighbours
			w, clock := as.Window(vpn, len(nb)), seg.clock+at
			for j := range nb {
				npfn, ok := w.PFN(j, clock)
				nb[j] = tlb.NeighbourPFN{PFN: npfn, OK: ok}
			}
			u.tlb.Insert(vpn|tag, seg.pfn[i], nb)
		}
		if u.caches != nil {
			u.access(seg, at, seg.n[i])
		}
		at += seg.n[i]
	}
	u.tlb.Repeat(seg.refs - uint64(len(seg.vpn)))
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
