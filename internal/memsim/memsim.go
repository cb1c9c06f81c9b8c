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
// The simulator runs unit-major. The OS layer resolves each reference
// once, into the frame it touched, and appends it to a pending segment;
// each TLB unit then runs the whole segment in its own loop, so its tags,
// LRU links and ToCs stay hot in the host's cache. A segment ends before
// any reference that faults and before any eviction, the only events that
// change a page table, so every unit sees exactly the per-reference
// sequence of lookups, walks and fills: units share nothing else.
package memsim

import (
	"fmt"
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
	// report, stopping the run at the first reference that broke state.
	CheckEvery uint64
	// Obs supplies the observability bundle. The registry is shared with
	// the underlying vm.System (one namespace per run); when the bundle
	// carries a Sampler, the simulator registers its time-series probes on
	// it and ticks it once per data reference. Nil disables sampling and
	// events; metrics still work through a private registry.
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
// own radix tree (its own CR3), per arity for the mosaic variants.
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
	// and no unit has run yet.
	seg segment
	// Page tables are per (ASID, arity): mosaic PTs are shared among units
	// with equal arity (their contents are identical; each unit still
	// walks them independently).
	vanillaPTs map[core.ASID]*pagetable.Vanilla
	mosaicPTs  map[ptKey]*pagetable.Mosaic
	// arities lists the distinct mosaic arities in ascending order. Faults
	// and evictions visit the per-arity page tables in this order, so
	// page-table nodes come off the shared bump allocator in the same
	// order every run and walk addresses are deterministic.
	arities []int
	paAlloc pagetable.PAAllocator
	path    []uint64

	// Observability: instrument handles on the hot paths, plus the
	// optional sampler (nil = one pointer compare per reference) and
	// event log.
	metrics    *obs.Registry
	sampler    *obs.Sampler
	events     *obs.EventLog
	cShootdown *obs.Counter // tlb.shootdown
	cFlush     *obs.Counter // tlb.flush
	finalized  bool

	// Invariant checking (Config.CheckEvery).
	sinceCheck  uint64
	clockMono   *invariant.Monotone
	horizonMono *invariant.Monotone
}

// asidTagShift places the ASID above the 36-bit VPN in TLB tags, the
// PCID-style tagging that lets entries from several address spaces coexist.
const asidTagShift = 40

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
		mosaicPTs:   make(map[ptKey]*pagetable.Mosaic),
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
	// Page-table nodes live above the workload's physical frames so walk
	// traffic and data traffic never alias in the caches.
	ptBase := uint64(cfg.Frames) * core.PageSize
	s.paAlloc = pagetable.BumpAllocator(ptBase)
	s.vanillaPTs = make(map[core.ASID]*pagetable.Vanilla)
	for _, spec := range cfg.Specs {
		if err := spec.Geometry.Validate(); err != nil {
			return nil, err
		}
		if spec.Arity != 0 && spec.Coalesce != 0 {
			return nil, fmt.Errorf("memsim: spec %s sets both Arity and Coalesce", spec.Label())
		}
		if spec.Arity < 0 || spec.Arity&(spec.Arity-1) != 0 {
			return nil, fmt.Errorf("memsim: arity %d is not a positive power of two", spec.Arity)
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
		vpn:   make([]core.VPN, 0, segmentCap),
		pa:    make([]uint64, 0, segmentCap),
		write: make([]bool, 0, segmentCap),
	}
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

// RegisterLive wires publish-time gauges for the simulator state that is
// not already a registry instrument — the reference clock, per-unit TLB
// counters, swap I/O totals — so every published snapshot carries enough
// to compute windowed rates (refs/s, hit rate, swap I/O rate) from two
// scrapes alone. The probes are evaluated only at publication (window
// boundaries), on the simulator thread; the per-reference path is
// untouched. Call once, before the run, on the thread that will drive
// the simulator.
func (s *Simulator) RegisterLive(p *obs.Publisher) {
	p.Gauge("sim.refs.total", func() float64 { return float64(s.os.Clock()) })
	p.Gauge("swap.io.total", func() float64 { return float64(s.os.Device().TotalIO()) })
	for _, u := range s.units {
		pfx := "tlb." + slug(u.base().spec.Label())
		p.Gauge(pfx+".live.hits", func() float64 { return float64(u.stats().Hits) })
		p.Gauge(pfx+".live.misses", func() float64 { return float64(u.stats().Misses) })
		p.Gauge(pfx+".live.lookups", func() float64 { return float64(u.stats().Lookups()) })
	}
}

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

// vanillaPT returns (creating if needed) the ASID's conventional page table.
func (s *Simulator) vanillaPT(asid core.ASID) *pagetable.Vanilla {
	pt, ok := s.vanillaPTs[asid]
	if !ok {
		pt = pagetable.NewVanilla(nil, s.paAlloc)
		s.vanillaPTs[asid] = pt
	}
	return pt
}

// mosaicPT returns (creating if needed) the ASID's mosaic page table for
// the given arity.
func (s *Simulator) mosaicPT(asid core.ASID, arity int) *pagetable.Mosaic {
	k := ptKey{asid: asid, arity: arity}
	pt, ok := s.mosaicPTs[k]
	if !ok {
		pt = pagetable.NewMosaic(arity, nil, s.paAlloc)
		s.mosaicPTs[k] = pt
	}
	return pt
}

// onEvict keeps page tables and TLBs coherent with the OS: the evicted
// page's leaf entry is cleared and the TLBs shoot down the mapping — for a
// mosaic TLB only the sub-page entry, per §3.1. The pending segment runs
// first: its references precede the eviction.
func (s *Simulator) onEvict(asid core.ASID, vpn core.VPN) {
	s.flush()
	s.cShootdown.Inc()
	if pt, ok := s.vanillaPTs[asid]; ok {
		pt.Unset(vpn)
	}
	for _, arity := range s.arities {
		if pt, ok := s.mosaicPTs[ptKey{asid: asid, arity: arity}]; ok {
			pt.ClearCPFN(vpn)
		}
	}
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
// one-reference segment. TLB entries are ASID-tagged (PCID-style), so
// entries from several processes coexist; use FlushTLBs to model untagged
// context switches.
func (s *Simulator) AccessFrom(asid core.ASID, va uint64, write bool) {
	s.seg.asid = asid
	s.resolve(va, write)
	s.flush()
	if s.cfg.CheckEvery > 0 {
		s.sinceCheck++
		if s.sinceCheck >= s.cfg.CheckEvery {
			s.sinceCheck = 0
			s.mustCheck()
		}
	}
	if s.sampler != nil {
		s.sampler.Tick()
	}
}

// resolve runs one reference of the segment's ASID through the OS layer
// and appends it to the pending segment. A reference that faults first
// ends the segment before it and installs its own page-table entries, so
// no unit walks a page table ahead of the reference it is running.
func (s *Simulator) resolve(va uint64, write bool) {
	seg := &s.seg
	vpn := core.VPNOf(va)
	if s.os.Touch(seg.asid, vpn, write) != vm.Hit {
		s.fault(vpn)
	}
	pfn, _ := s.os.Resolved()
	seg.vpn = append(seg.vpn, vpn)
	seg.pa = append(seg.pa, uint64(pfn)*core.PageSize+core.PageOffset(va))
	seg.write = append(seg.write, write)
	if len(seg.vpn) == segmentCap {
		s.flush()
	}
}

// fault installs a freshly faulted mapping in the page tables, after
// running the segment of references that precede it. It is the cold half
// of resolve, outlined so the hot loop stays compact.
func (s *Simulator) fault(vpn core.VPN) {
	s.flush()
	asid := s.seg.asid
	pfn, cpfn := s.os.Resolved()
	s.vanillaPT(asid).Set(vpn, pfn)
	for _, arity := range s.arities {
		s.mosaicPT(asid, arity).SetCPFN(vpn, cpfn)
	}
}

// flush runs the pending segment through every unit, one unit at a time,
// and empties it.
func (s *Simulator) flush() {
	seg := &s.seg
	if len(seg.vpn) == 0 {
		return
	}
	for _, u := range s.units {
		u.run(s, seg)
	}
	seg.vpn, seg.pa, seg.write = seg.vpn[:0], seg.pa[:0], seg.write[:0]
}

// ProcessBatch implements trace.BatchSink: a whole batch of references
// from the configured default address space. Results — counters,
// histograms, sampler windows, event ref-indices — do not depend on where
// batch boundaries fall.
func (s *Simulator) ProcessBatch(b trace.Batch) {
	s.ProcessBatchFrom(s.cfg.ASID, b)
}

// ProcessBatchFrom is the batched AccessFrom. When neither the sampler
// nor the invariant cadence needs a per-reference tick, the batch is
// resolved into segments that each unit runs whole; otherwise each
// reference is its own segment through AccessFrom, so window boundaries
// land on the same reference indices at any batching.
func (s *Simulator) ProcessBatchFrom(asid core.ASID, b trace.Batch) {
	if s.sampler != nil || s.cfg.CheckEvery > 0 {
		for _, r := range b {
			s.AccessFrom(asid, r.VA(), r.Write())
		}
		return
	}
	s.seg.asid = asid
	for _, r := range b {
		s.resolve(r.VA(), r.Write())
	}
	s.flush()
}

// mustCheck runs CheckInvariants and panics on any violation — the
// Config.CheckEvery debug mode wants a loud, immediate stop at the first
// sampling point where the simulated machine's state is inconsistent.
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
//     table. A stale-invalid sub-entry is fine — it is just a future
//     miss — but a valid entry naming a frame the page table no longer
//     maps would let the simulated hardware use a frame the OS gave away.
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
