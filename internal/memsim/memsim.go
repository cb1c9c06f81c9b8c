// Package memsim is the repository's gem5 substitute: a trace-driven
// memory-system simulator that reproduces the paper's dual-TLB methodology
// (§3.1). Every workload reference is fed to a conventional TLB and any
// number of mosaic TLBs — one per (geometry, arity) point of Figure 6 —
// each backed by its own page-table walker, so a single workload pass
// yields the entire associativity × arity grid under an identical
// reference stream.
//
// The OS underneath is a mosaic-mode vm.System with ample memory (Figure 6
// runs fit in DRAM, as in the paper's 16 GB gem5 machine), so placement is
// iceberg-constrained and CPFNs are real. Vanilla TLB entries store the
// resulting PFNs; TLB miss counts are placement-independent either way.
//
// With caches enabled, each TLB unit gets a private cache hierarchy
// (Table 1a) through which both its page-table walks and the data stream
// flow, exactly as gem5 attaches a walker per TLB.
//
// Only a cache hierarchy or a walk cache reads the physical addresses a
// page-table walk touches, so only a simulator with either builds radix
// page tables. They are views of the OS layer's page records, not copies:
// memsim keeps only each tree's nodes, and a walk reads the PFN, the ToC or
// the CoLT neighbours from the records. Without them a walk reads
// pagetable.Levels entries and its addresses go unread, so it is counted,
// not performed.
//
// The simulator runs unit-major. The OS layer resolves each run of
// references to one page once, with one vm.TouchN, into the frame it
// touched, and appends it to a pending segment as one row; each TLB unit
// then runs the whole segment in its own loop, so its tags, LRU links and
// ToCs stay hot in the host's cache. Each record carries the access clock
// at which its page became resident, and a unit replaying a row whose
// first reference ran at clock c reads every record as of c: a page that
// faulted in later in the segment is absent from the ToC or neighbour
// group it fills. Faults therefore do not end a segment. Evictions do: the
// eviction hook runs the pending segment before the record changes and
// before the shootdown. So every unit sees exactly the per-reference
// sequence of lookups, walks and fills: units share nothing else.
//
// Sampler window edges and CheckEvery audits end a segment too, cutting a
// row that spans one, so the probes and the audit read the state after
// exactly the reference at the edge. A batch, a single Access and a
// sampled run all take this one path.
//
// A unit looks up only a row's first reference and counts the rest of the
// row as hits. That is exact: after the first reference each unit's TLB
// holds the page at the MRU slot of its set, whether it hit or filled (a
// mosaic ToC as of that reference holds the page, which was resident
// then), and no shootdown lands inside a segment, so each further lookup
// would hit and change nothing but the hit count. The caches still see
// every data access, in order.
package memsim

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"mosaic/internal/cache"
	"mosaic/internal/core"
	"mosaic/internal/invariant"
	"mosaic/internal/obs"
	"mosaic/internal/pagetable"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
	"mosaic/internal/vm"
)

// VALimit is the first virtual address the simulator cannot translate:
// its page tables index pagetable.VPNBits-bit VPNs, and TLB tags
// hold the ASID above them. A stream from outside (a trace file) must be
// checked with CheckBatch before it runs; a reference at or above the
// limit panics.
const VALimit = 1 << (core.PageShift + pagetable.VPNBits)

// CheckBatch returns an error for the first reference of b at or above
// VALimit.
func CheckBatch(b trace.Batch) error {
	for i, r := range b {
		if r.VA() >= VALimit {
			return fmt.Errorf("memsim: reference %d: VA %#x is at or above the simulated address-space limit %#x", i, r.VA(), uint64(VALimit))
		}
	}
	return nil
}

// TLBSpec names one TLB design point.
type TLBSpec struct {
	// Geometry is the entry count and associativity.
	Geometry tlb.Geometry
	// Arity is the mosaic arity; 0 selects a vanilla TLB.
	Arity int
	// Coalesce, when nonzero, selects a CoLT-style coalescing TLB with
	// this maximum run length instead (§5.2 baseline). Mutually exclusive
	// with Arity.
	Coalesce int
}

// Label renders the spec the way the paper's figures do ("Vanilla",
// "Mosaic-4", …); coalescing baselines render as "CoLT-<run>".
func (s TLBSpec) Label() string {
	switch {
	case s.Coalesce != 0:
		return fmt.Sprintf("CoLT-%d", s.Coalesce)
	case s.Arity == 0:
		return "Vanilla"
	default:
		return fmt.Sprintf("Mosaic-%d", s.Arity)
	}
}

const (
	// memLatency is the DRAM latency in cycles behind the cache model.
	memLatency = 100
	// walkCacheEntries sizes each unit's page-walk cache.
	walkCacheEntries = 32
)

// Config parameterizes a Simulator.
type Config struct {
	// Frames is the simulated DRAM size in 4 KiB frames. It must
	// comfortably exceed the workload footprint (Figure 6 measures TLB
	// behaviour, not swapping). Default 1<<20 frames (4 GiB).
	Frames int
	// Specs are the TLB design points to drive simultaneously.
	Specs []TLBSpec
	// EnableCaches attaches a Table 1a cache hierarchy per TLB unit, with
	// a memLatency-cycle DRAM behind it.
	EnableCaches bool
	// Seed seeds the placement hash.
	Seed uint64
	// ASID is the address space the workload runs in (default 1).
	ASID core.ASID
	// EnableWalkCache attaches a per-unit MMU page-walk cache (§5.4) of
	// walkCacheEntries entries that caches upper-level page-table entries,
	// shortening walks.
	EnableWalkCache bool
	// CheckEvery, when positive, runs the deep invariant checkers (see
	// Simulator.CheckInvariants) every CheckEvery data references — a
	// debug mode for long simulations. Any violation panics with the full
	// report, stopping the run at the first audit after the reference that
	// broke state.
	CheckEvery uint64
	// Obs supplies the observability bundle. The registry is shared with
	// the underlying vm.System (one namespace per run); when the bundle
	// carries a Sampler, the simulator registers its time-series probes on
	// it and advances it at the end of each run segment, cutting segments
	// at window edges. Units then need distinct labels, one series name
	// each. Nil disables sampling and events; metrics still work through a
	// private registry.
	Obs *obs.Observer
}

// Result is the outcome of one TLB design point after a run.
type Result struct {
	Spec TLBSpec
	// TLB is the hit/miss breakdown.
	TLB tlb.Stats
	// Walks is the number of page-table walks performed (== TLB misses).
	Walks uint64
	// WalkAccesses is the number of memory references those walks issued.
	WalkAccesses uint64
	// AMAT is the average memory access time in cycles (caches enabled
	// only), averaged over data references and walk references together.
	AMAT float64
	// TotalCycles is the summed latency of all data and walk accesses
	// (caches enabled only) — the comparable end-to-end cost.
	TotalCycles uint64
	// WalkCycles is the latency spent in page-table walks alone (caches
	// enabled only). WalkCycles/TotalCycles is the address-translation
	// share of memory time — the paper's intro reports 20–30% for
	// TLB-bound applications.
	WalkCycles uint64
	// CacheStats holds per-level cache counters (caches enabled only).
	CacheStats []cache.Stats
	// WalkCacheHits counts upper-level walk reads absorbed by the MMU
	// walk cache (walk-cache enabled only).
	WalkCacheHits uint64
	// CoalescingFactor is the mean pages covered per fill (CoLT units).
	CoalescingFactor float64
}

// ptKey identifies a per-process page table: each address space has its
// own radix tree (its own CR3), per arity for the mosaic variants. Only the
// tree's nodes are stored; its entries are the OS layer's page records.
type ptKey struct {
	asid  core.ASID
	arity int // 0 = vanilla
}

// Simulator drives the memory system. It implements trace.BatchSink, so
// workloads run straight into it. It is not safe for concurrent use.
type Simulator struct {
	cfg   Config
	os    *vm.System
	units []unit
	// seg is the pending segment: references the OS layer has resolved
	// and no unit has run yet. resolve runs it at cut references (see
	// nextCut).
	seg segment
	cut uint64
	// Page tables are per (ASID, arity), arity 0 the vanilla table that
	// vanilla and CoLT units walk: mosaic PTs are shared among units with
	// equal arity (each unit still walks them independently). pts is nil
	// unless caches or a walk cache read the walks' addresses.
	pts map[ptKey]*pagetable.Table
	// arities lists the distinct mosaic arities in ascending order. A fault
	// maps the page in the vanilla table and then in the per-arity tables
	// in this order, so page-table nodes come off the shared bump
	// allocator in the same order every run and walk addresses are
	// deterministic.
	arities []int
	paAlloc pagetable.PAAllocator
	path    []uint64

	// Observability: instrument handles on the hot paths, plus the
	// optional sampler (nil = one pointer compare per segment) and event
	// log.
	metrics    *obs.Registry
	sampler    *obs.Sampler
	events     *obs.EventLog
	cShootdown *obs.Counter // tlb.shootdown
	cFlush     *obs.Counter // tlb.flush
	finalized  bool

	// Invariant checking (Config.CheckEvery): references run since the
	// last audit.
	sinceCheck  uint64
	clockMono   *invariant.Monotone
	horizonMono *invariant.Monotone
}

// asidTagShift places the ASID above the 36-bit VPN in TLB tags, the
// PCID-style tagging that lets entries from several address spaces coexist.
const asidTagShift = 40

// ASIDLimit is the first ASID the simulator cannot run: a 64-bit TLB tag
// holds the ASID's low 64−asidTagShift bits, so a wider ASID would share
// its entries with another address space. New and ReplayFrom return an
// error for such an ASID; AccessFrom and ProcessBatchFrom panic.
const ASIDLimit = 1 << (64 - asidTagShift)

// checkASID returns an error for an ASID at or above ASIDLimit.
func checkASID(asid core.ASID) error {
	if uint64(asid) >= ASIDLimit {
		return fmt.Errorf("memsim: ASID %d is at or above the TLB tag limit %d", asid, uint64(ASIDLimit))
	}
	return nil
}

func taggedVPN(asid core.ASID, vpn core.VPN) core.VPN {
	return vpn | core.VPN(uint64(asid)<<asidTagShift)
}

// New builds a Simulator.
func New(cfg Config) (*Simulator, error) {
	if cfg.Frames == 0 {
		cfg.Frames = 1 << 20
	}
	if cfg.ASID == 0 {
		cfg.ASID = 1
	}
	if err := checkASID(cfg.ASID); err != nil {
		return nil, err
	}
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("memsim: config needs at least one TLB spec")
	}
	osys, err := vm.New(vm.Config{Frames: cfg.Frames, Mode: vm.ModeMosaic, Seed: cfg.Seed, Obs: cfg.Obs})
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:         cfg,
		os:          osys,
		metrics:     osys.Metrics(), // one namespace shared with the OS layer
		clockMono:   invariant.NewMonotone("memsim.clock-monotone"),
		horizonMono: invariant.NewMonotone("memsim.horizon-monotone"),
	}
	if cfg.Obs != nil {
		s.sampler = cfg.Obs.Sampler
		s.events = cfg.Obs.Events
	}
	s.cShootdown = s.metrics.Counter("tlb.shootdown")
	s.cFlush = s.metrics.Counter("tlb.flush")
	if cfg.EnableCaches || cfg.EnableWalkCache {
		s.pts = make(map[ptKey]*pagetable.Table)
		// Page-table nodes live above the workload's physical frames so
		// walk traffic and data traffic never alias in the caches.
		s.paAlloc = pagetable.BumpAllocator(uint64(cfg.Frames) * core.PageSize)
	}
	sampled := make(map[string]bool)
	for _, spec := range cfg.Specs {
		if err := spec.Geometry.Validate(); err != nil {
			return nil, err
		}
		if s.sampler != nil {
			name := slug(spec.Label())
			if sampled[name] {
				return nil, fmt.Errorf("memsim: two TLB specs are labelled %s; a sampled run needs one series name per unit", spec.Label())
			}
			sampled[name] = true
		}
		if spec.Arity != 0 && spec.Coalesce != 0 {
			return nil, fmt.Errorf("memsim: spec %s sets both Arity and Coalesce", spec.Label())
		}
		if spec.Arity < 0 || spec.Arity&(spec.Arity-1) != 0 {
			return nil, fmt.Errorf("memsim: arity %d is not a positive power of two", spec.Arity)
		}
		if spec.Arity > vm.ChunkPages {
			return nil, fmt.Errorf("memsim: arity %d exceeds %d, the longest aligned run of page records", spec.Arity, vm.ChunkPages)
		}
		if spec.Coalesce < 0 || spec.Coalesce > 64 || spec.Coalesce&(spec.Coalesce-1) != 0 {
			return nil, fmt.Errorf("memsim: coalescing run length %d is not a power of two in [1,64]", spec.Coalesce)
		}
		b := unitBase{spec: spec}
		if cfg.EnableWalkCache {
			b.pwc = newWalkCache(walkCacheEntries)
		}
		if cfg.EnableCaches {
			h, err := cache.NewHierarchy(memLatency, cache.Table1a()...)
			if err != nil {
				return nil, err
			}
			b.caches = h
		}
		s.units = append(s.units, newUnit(b))
		if spec.Arity != 0 && !slices.Contains(s.arities, spec.Arity) {
			s.arities = append(s.arities, spec.Arity)
		}
	}
	s.seg = segment{
		vpn: make([]core.VPN, 0, segmentCap),
		pfn: make([]core.PFN, 0, segmentCap),
		n:   make([]uint64, 0, segmentCap),
	}
	if cfg.EnableCaches {
		s.seg.pa = make([]uint64, 0, segmentCap)
		s.seg.write = make([]bool, 0, segmentCap)
	}
	s.cut = s.nextCut()
	sort.Ints(s.arities)
	osys.OnEvict(s.onEvict)
	if s.sampler != nil {
		s.registerProbes()
	}
	return s, nil
}

// slug maps a TLB spec label to a metric-name segment ("Mosaic-4" →
// "mosaic_4") so per-unit series and counters get lawful dotted names.
func slug(label string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(label) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// registerProbes wires the time-series sampler to live simulator state:
// per-unit TLB hit rate and walk latency, per-unit per-level cache MPKI,
// iceberg slot occupancy by level, memory utilization and ghost pressure,
// and swap/fault activity. Ratio probes are windowed (delta-based), so each
// point reflects that window alone, not the run-so-far average.
func (s *Simulator) registerProbes() {
	sp := s.sampler
	for _, u := range s.units {
		b := u.base()
		p := "tlb." + slug(b.spec.Label())
		sp.Ratio(p+".hit_rate", 1,
			func() float64 { return float64(u.stats().Hits) },
			func() float64 { return float64(u.stats().Lookups()) })
		if b.caches != nil {
			sp.Ratio(p+".walk_latency", 1,
				func() float64 { return float64(b.walkCycles) },
				func() float64 { return float64(b.walks) })
			for _, l := range b.caches.Levels() {
				sp.Ratio("cache."+slug(b.spec.Label())+"."+slug(l.Config().Name)+".mpki", 1000,
					func() float64 { return float64(l.Stats().Misses) },
					func() float64 { return float64(s.os.Clock()) })
			}
		}
	}
	if mem := s.os.Allocator(); mem != nil {
		geom := mem.Geometry()
		frontCap := float64(mem.NumBuckets()) * float64(geom.FrontyardSize)
		backCap := float64(mem.NumBuckets()) * float64(geom.BackyardSize)
		sp.Gauge("iceberg.frontyard.occupancy", func() float64 { return float64(mem.FrontyardUsed()) / frontCap })
		sp.Gauge("iceberg.backyard.occupancy", func() float64 { return float64(mem.BackyardUsed()) / backCap })
		sp.Gauge("vm.ghost.fraction", func() float64 {
			return float64(s.os.GhostCount()) / float64(mem.NumFrames())
		})
	}
	sp.Gauge("vm.utilization", s.os.Utilization)
	sp.Rate("swap.io.rate", func() float64 { return float64(s.os.Device().TotalIO()) })
	minor := s.metrics.Counter("vm.fault.minor")
	major := s.metrics.Counter("vm.fault.major")
	sp.Rate("vm.fault.rate", func() float64 { return float64(minor.Value() + major.Value()) })
}

// OS exposes the underlying vm.System (swap counters, utilization, …).
func (s *Simulator) OS() *vm.System { return s.os }

// Metrics exposes the run's instrument registry (shared with the OS
// layer): tlb.shootdown, tlb.flush, the vm.* counters, and — after
// FinalizeMetrics — the per-unit tlb.<design>.* breakdown.
func (s *Simulator) Metrics() *obs.Registry { return s.metrics }

// Sampler exposes the time-series sampler, nil when sampling is disabled.
func (s *Simulator) Sampler() *obs.Sampler { return s.sampler }

// FinalizeMetrics records each unit's end-of-run TLB breakdown and walk
// totals into the registry (tlb.<design>.hit, .miss, .walk.refs, …) and
// flushes any partial sampler window. It is idempotent: only the first
// call records.
func (s *Simulator) FinalizeMetrics() *obs.Registry {
	if s.finalized {
		return s.metrics
	}
	s.finalized = true
	for _, u := range s.units {
		b := u.base()
		p := "tlb." + slug(b.spec.Label())
		u.stats().Record(s.metrics, p)
		s.metrics.Counter(p + ".walk.count").Add(b.walks)
		s.metrics.Counter(p + ".walk.refs").Add(b.walkRefs)
		if b.pwc != nil {
			s.metrics.Counter(p + ".walk.pwc_hits").Add(b.pwcHits)
		}
		if b.caches != nil {
			s.metrics.Counter(p + ".walk.cycles").Add(b.walkCycles)
		}
	}
	if s.sampler != nil {
		s.sampler.Flush()
	}
	return s.metrics
}

// pt returns (creating if needed) the ASID's page table of the given
// arity, 0 for the vanilla table.
func (s *Simulator) pt(asid core.ASID, arity int) *pagetable.Table {
	k := ptKey{asid: asid, arity: arity}
	pt, ok := s.pts[k]
	if !ok {
		if arity == 0 {
			pt = pagetable.NewVanilla(s.paAlloc)
		} else {
			pt = pagetable.NewMosaic(arity, s.paAlloc)
		}
		s.pts[k] = pt
	}
	return pt
}

// onEvict keeps the TLBs coherent with the OS: they shoot down the
// evicted page's one mapping, (asid, vpn) — for a mosaic TLB only the
// sub-page entry, per §3.1. The hook runs before the OS changes the page's
// record, and the pending segment runs first: its references precede the
// eviction. The evicting reference is not appended yet, so that segment is
// shorter than the cut and ends short of every sampler and audit edge: no
// probe and no invariant audit runs inside an eviction.
func (s *Simulator) onEvict(asid core.ASID, vpn core.VPN) {
	s.flush()
	s.cShootdown.Inc()
	tagged := taggedVPN(asid, vpn)
	for _, u := range s.units {
		u.invalidate(tagged)
	}
}

// FlushTLBs invalidates every entry of every TLB unit — the cost of a
// context switch without ASID tagging.
func (s *Simulator) FlushTLBs() {
	s.cFlush.Inc()
	if s.events != nil {
		s.events.Emit(obs.Event{
			Ref: s.os.Clock(), Component: "memsim", Kind: "tlb.flush", Severity: obs.Info,
			Message: "full TLB flush (untagged context switch)",
		})
	}
	for _, u := range s.units {
		u.flush()
	}
}

// Access is a one-reference convenience: one data reference through the
// whole simulated memory system, from the configured default address space.
// Streams go through ProcessBatch.
func (s *Simulator) Access(va uint64, write bool) {
	s.AccessFrom(s.cfg.ASID, va, write)
}

// AccessFrom performs one data reference from the given address space: a
// one-reference batch. TLB entries are ASID-tagged (PCID-style), so
// entries from several processes coexist; use FlushTLBs to model untagged
// context switches.
func (s *Simulator) AccessFrom(asid core.ASID, va uint64, write bool) {
	checkVA(va)
	s.ProcessBatchFrom(asid, trace.Batch{trace.MakeRef(va, write)})
}

// setASID makes asid the ASID of the references resolve appends next.
func (s *Simulator) setASID(asid core.ASID) {
	if err := checkASID(asid); err != nil {
		//lint:ignore nopanic New and ReplayFrom return this error; a caller passing its own ASIDs keeps them below ASIDLimit, as it keeps VAs below VALimit
		panic(err)
	}
	s.seg.asid = asid
}

// checkVA panics for a VA at or above VALimit.
func checkVA(va uint64) {
	if va >= VALimit {
		//lint:ignore nopanic streams from outside the process are checked with CheckBatch; a larger VA would alias another page's entries
		panic(fmt.Sprintf("memsim: VA %#x is at or above the simulated address-space limit", va))
	}
}

// resolve runs a run of references to one page of the segment's ASID
// through the OS layer, as one TouchN, and appends it to the pending
// segment as one row. The run must end at or before the cut. A run whose
// first reference faults maps its page-table nodes; the units read its
// record as of each row's first clock, so none sees the page before the
// reference that faulted it in. The row is appended only after TouchN
// returns: an eviction inside it runs the pending segment, which must not
// hold the row.
func (s *Simulator) resolve(vpn core.VPN, run trace.Batch, write bool) {
	seg := &s.seg
	n := uint64(len(run))
	if s.os.TouchN(seg.asid, vpn, n, write) != vm.Hit && s.pts != nil {
		s.mapNodes(seg.asid, vpn)
	}
	if seg.refs == 0 {
		seg.clock = s.os.Clock() - (n - 1)
	}
	pfn, _ := s.os.Resolved()
	seg.vpn = append(seg.vpn, vpn)
	seg.pfn = append(seg.pfn, pfn)
	seg.n = append(seg.n, n)
	seg.refs += n
	if s.cfg.EnableCaches {
		for _, r := range run {
			seg.pa = append(seg.pa, uint64(pfn)*core.PageSize+core.PageOffset(r.VA()))
			seg.write = append(seg.write, r.Write())
		}
	}
	if seg.refs == s.cut {
		s.flush()
	}
}

// mapNodes maps a page's nodes in every page table of the ASID: the
// vanilla table first, then the arities ascending. resolve calls it for a
// page the reference faulted in, the only way a page becomes resident in
// an address space. It is the cold half of resolve, outlined so the hot
// loop stays compact.
func (s *Simulator) mapNodes(asid core.ASID, vpn core.VPN) {
	s.pt(asid, 0).Map(vpn)
	for _, arity := range s.arities {
		s.pt(asid, arity).Map(vpn)
	}
}

// flush runs the pending segment through every unit, one unit at a time,
// and empties it. It then advances the audit count and the sampler by the
// segment's length; a segment that ends at an edge runs the audit, then
// samples. Finally it sets the next segment's cut.
func (s *Simulator) flush() {
	seg := &s.seg
	n := seg.refs
	if n == 0 {
		return
	}
	for _, u := range s.units {
		u.run(s, seg)
	}
	seg.vpn, seg.pfn, seg.n, seg.pa, seg.write = seg.vpn[:0], seg.pfn[:0], seg.n[:0], seg.pa[:0], seg.write[:0]
	seg.refs = 0
	if s.cfg.CheckEvery > 0 {
		s.sinceCheck += n
		if s.sinceCheck == s.cfg.CheckEvery {
			s.sinceCheck = 0
			s.mustCheck()
		}
	}
	if s.sampler != nil {
		s.sampler.Tick(n)
	}
	s.cut = s.nextCut()
}

// nextCut is the pending segment's cut length: segmentCap, or the
// references left before the next audit or sampler window edge when that
// is fewer.
func (s *Simulator) nextCut() uint64 {
	cut := uint64(segmentCap)
	if every := s.cfg.CheckEvery; every > 0 {
		cut = min(cut, every-s.sinceCheck)
	}
	if s.sampler != nil {
		cut = min(cut, s.sampler.Left())
	}
	return cut
}

// ProcessBatch implements trace.BatchSink: a whole batch of references
// from the configured default address space. Results — counters, sampler
// windows, event ref-indices — do not depend on where batch boundaries
// fall.
func (s *Simulator) ProcessBatch(b trace.Batch) {
	s.ProcessBatchFrom(s.cfg.ASID, b)
}

// ProcessBatchFrom runs a batch of references from the given address
// space: the OS layer resolves each maximal run of references to one page,
// cut where the pending segment's cut falls inside it, into one row of the
// segment, and each unit runs every segment whole. Segments end at the
// batch's end, at evictions and at sampler and audit edges, so window
// boundaries land on the same reference indices at any batching.
func (s *Simulator) ProcessBatchFrom(asid core.ASID, b trace.Batch) {
	s.setASID(asid)
	for i := 0; i < len(b); {
		va := b[i].VA()
		checkVA(va) // a run's other references share its page
		vpn, write := core.VPNOf(va), b[i].Write()
		end := len(b)
		if left := s.cut - s.seg.refs; left < uint64(end-i) {
			end = i + int(left)
		}
		j := i + 1
		for ; j < end && core.VPNOf(b[j].VA()) == vpn; j++ {
			write = write || b[j].Write()
		}
		s.resolve(vpn, b[i:j], write)
		i = j
	}
	s.flush()
}

// Replay replays a captured stream into the configured default address
// space; see ReplayFrom.
func (s *Simulator) Replay(r *trace.BatchReader) (uint64, error) {
	return s.ReplayFrom(s.cfg.ASID, r)
}

// ReplayFrom replays a captured stream into asid's address space, one
// decoded frame per batch, and returns the number of references run. A
// frame holding a reference at or above VALimit stops the replay with an
// error before any of the frame's references runs, and an ASID at or above
// ASIDLimit stops it before any reference runs.
func (s *Simulator) ReplayFrom(asid core.ASID, r *trace.BatchReader) (uint64, error) {
	if err := checkASID(asid); err != nil {
		return 0, err
	}
	var n uint64
	buf := make(trace.Batch, 0, trace.DefaultBatchSize)
	for {
		b, err := r.ReadBatch(buf)
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err == nil {
			err = CheckBatch(b)
		}
		if err != nil {
			return n, err
		}
		s.ProcessBatchFrom(asid, b)
		n += uint64(len(b))
		buf = b
	}
}

// mustCheck runs CheckInvariants and panics on any violation — the
// Config.CheckEvery debug mode wants a loud, immediate stop at the first
// audit where the simulated machine's state is inconsistent. flush calls
// it only at an audit edge, between references, with no segment pending.
func (s *Simulator) mustCheck() {
	var r invariant.Report
	s.CheckInvariants(&r)
	if err := r.Err(); err != nil {
		panic("memsim: " + err.Error())
	}
	if s.events != nil {
		s.events.Emit(obs.Event{
			Ref: s.os.Clock(), Component: "memsim", Kind: "invariant.pass", Severity: obs.Info,
			Fields: map[string]float64{"checks": float64(r.Checks())},
		})
	}
}

// CheckInvariants runs the deep checkers over the whole simulated machine,
// recording any violation on r:
//
//   - the OS state, via vm.System.CheckInvariants (which itself descends
//     into the allocator's bitmap and hashing invariants);
//   - monotonicity of the access clock and of the Horizon LRU ghost
//     threshold across successive calls;
//   - TLB ↔ page-table coherence: every valid entry of every vanilla and
//     mosaic TLB unit must agree with the owning address space's page
//     records. A stale-invalid sub-entry is fine — it is just a future
//     miss — but a valid entry naming a frame the OS no longer maps
//     there would let the simulated hardware use a frame the OS gave away.
//     Because mosaic placement is stable, a resident page never moves;
//     remaps happen only through evictions, which shoot the entry down.
//
// Coalesced (CoLT) units are not audited: their runs are rebuilt from
// neighbouring PTEs on every fill and have no single page-table entry to
// compare against.
func (s *Simulator) CheckInvariants(r *invariant.Report) {
	s.os.CheckInvariants(r)
	s.clockMono.Observe(r, s.os.Clock())
	s.horizonMono.Observe(r, s.os.Horizon())

	for _, u := range s.units {
		u.audit(s, r)
	}
}

// Results snapshots the per-design-point outcomes.
func (s *Simulator) Results() []Result {
	out := make([]Result, 0, len(s.units))
	for _, u := range s.units {
		out = append(out, u.result())
	}
	return out
}

// WalkOverheadPct is the share of modeled memory time spent in address
// translation: WalkCycles / TotalCycles (caches enabled only).
func (r Result) WalkOverheadPct() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return 100 * float64(r.WalkCycles) / float64(r.TotalCycles)
}

// ResultFor returns the result for the spec with the given label.
func (s *Simulator) ResultFor(label string) (Result, bool) {
	for _, r := range s.Results() {
		if r.Spec.Label() == label {
			return r, true
		}
	}
	return Result{}, false
}

var _ trace.BatchSink = (*Simulator)(nil)
