// Package vm implements the operating-system layer of the mosaic prototype
// (§3.2 of the paper): per-ASID address spaces, demand paging, and the
// interplay between the page allocator, the eviction policy, and the swap
// device.
//
// A System runs in one of two modes:
//
//   - ModeMosaic: allocation is iceberg-constrained (internal/alloc.Memory)
//     and eviction uses Horizon LRU (§2.4). Pages older than the horizon are
//     ghosts: resident and revivable for free, but reclaimable by the
//     allocator. Real evictions — and hence swap I/Os — happen only when a
//     ghost's frame is claimed or an associativity conflict forces a victim.
//
//   - ModeVanilla: allocation is fully associative and reclaim approximates
//     Linux: a two-list active/inactive LRU plus zone watermarks (reclaim
//     begins when free memory falls below lowWatermark, and proceeds until
//     highWatermark is free), matching the paper's observation that stock
//     Linux starts swapping at ≈99.2% utilization.
//
// Each address space stores its pages as dense records (records.go): state,
// frame, CPFN and the access clock at which the page became resident, in
// column chunks indexed by VPN. A shared region keeps its pages in chunks
// of the same form. These records are the only store of page state:
// whether a page is unmapped, resident or swapped out is read from its
// record, and the swap device only counts page-outs and page-ins. A
// non-resident record holds CPFNInvalid, so an aligned window of a chunk's
// CPFN column is exactly a mosaic page-table leaf; the memory-system
// simulator reads its page tables' entries from these records through
// Window instead of keeping a copy.
//
// Unlike the paper's Linux prototype — which emulates access timestamps
// with a scan daemon because x86 only maintains access bits — this layer
// keeps exact per-frame timestamps from a logical access clock, the design
// point the paper says a real mosaic system would implement.
package vm

import (
	"errors"
	"fmt"

	"mosaic/internal/alloc"
	"mosaic/internal/core"
	"mosaic/internal/obs"
	"mosaic/internal/swap"
	"mosaic/internal/xxhash"
)

// Mode selects the allocation/eviction regime.
type Mode int

const (
	// ModeMosaic uses iceberg-constrained allocation with Horizon LRU.
	ModeMosaic Mode = iota
	// ModeVanilla uses fully-associative allocation with a Linux-like
	// two-list LRU and zone watermarks.
	ModeVanilla
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeMosaic:
		return "mosaic"
	case ModeVanilla:
		return "vanilla"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Vanilla-mode zone watermarks, as fractions of all frames: reclaim kicks
// in when free frames fall to lowWatermark (Linux begins swapping at ≈99.2%
// utilization, per §4.2) and restores highWatermark free.
const (
	lowWatermark  float64 = 0.008
	highWatermark         = 1.25 * lowWatermark
)

// sharedASID is the reserved namespace for pages placed via location IDs
// (§2.5); user address spaces must not use it.
const sharedASID core.ASID = 0xFFFFFFFF

// maxFrames bounds Config.Frames: 2^24 frames of 4 KiB are 64 GiB, sixteen
// times the paper's 4 GiB pool. The allocator, the LRU and the swap
// bookkeeping are sized by the frame count when the System is built, so a
// larger count would ask for gigabytes before simulating anything.
const maxFrames = 1 << 24

// Config parameterizes a System.
type Config struct {
	// Frames is the number of physical frames: required, and at most
	// 2^24.
	Frames int
	// Mode selects mosaic or vanilla behaviour.
	Mode Mode
	// Geometry is the iceberg geometry (mosaic mode). Defaults to
	// core.DefaultGeometry.
	Geometry core.Geometry
	// Hash is the placement hash (mosaic mode). Defaults to xxHash with
	// Seed, mirroring the paper's Linux prototype.
	Hash core.PlacementHash
	// Seed seeds the default placement hash.
	Seed uint64
	// DisableHorizon turns off the Horizon LRU ghost mechanism (mosaic
	// mode), leaving the naive scheme §2.4 argues against: evict the LRU
	// page of the conflicting candidates, with no ghosts. For the eviction
	// ablation.
	DisableHorizon bool
	// ScanInterval, when nonzero, replaces exact access timestamps with
	// the paper's prototype emulation (§3.2): Touch only sets an accessed
	// bit, and a daemon scan every ScanInterval accesses converts bits to
	// timestamps (with the prototype's hot-page 20% sampling). Mosaic mode
	// only. Zero (default) keeps exact timestamps.
	ScanInterval uint64
	// Obs supplies the observability bundle (metrics registry and event
	// log). When nil, the system creates a private registry so counters
	// always work; events are simply not recorded.
	Obs *obs.Observer
}

func (c *Config) applyDefaults() error {
	if c.Frames <= 0 {
		return fmt.Errorf("vm: config needs a positive frame count, got %d", c.Frames)
	}
	if c.Frames > maxFrames {
		return fmt.Errorf("vm: %d frames exceeds the limit of %d", c.Frames, maxFrames)
	}
	if c.Geometry == (core.Geometry{}) {
		c.Geometry = core.DefaultGeometry
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.Mode == ModeMosaic && c.Geometry.BucketSize() > alloc.MaxBucketSize {
		return fmt.Errorf("vm: bucket size %d exceeds the allocator's limit of %d frames", c.Geometry.BucketSize(), alloc.MaxBucketSize)
	}
	if c.Mode == ModeMosaic && c.Frames < c.Geometry.BucketSize() {
		return fmt.Errorf("vm: %d frames is less than one %d-frame bucket", c.Frames, c.Geometry.BucketSize())
	}
	if c.Hash == nil {
		c.Hash = xxhash.NewPlacement(c.Seed)
	}
	return nil
}

// AccessResult classifies what a Touch had to do.
type AccessResult uint8

const (
	// Hit: the page was resident (possibly a ghost, revived for free).
	Hit AccessResult = iota
	// MinorFault: first touch of an unmapped page (demand-zero fill).
	MinorFault
	// MajorFault: the page was on the swap device and was paged in.
	MajorFault
)

// String implements fmt.Stringer.
func (r AccessResult) String() string {
	switch r {
	case Hit:
		return "hit"
	case MinorFault:
		return "minor-fault"
	case MajorFault:
		return "major-fault"
	default:
		return fmt.Sprintf("AccessResult(%d)", int(r))
	}
}

type pageState uint8

const (
	// pageNone: a private record that maps nothing, or a shared-region
	// page that was never faulted in.
	pageNone pageState = iota
	pageResident
	pageSwapped
)

type sharedRef struct {
	region *SharedRegion
	index  int
}

// AddressSpace is one process's view of virtual memory: its private page
// records (records.go) and its shared-region mappings.
type AddressSpace struct {
	asid core.ASID
	// dirs holds the private records by the VPN's high bits; lastKey and
	// lastDir cache the directory the last lookup used.
	dirs    map[uint64]*directory
	lastKey uint64
	lastDir *directory
	// shared is nil until the space maps a shared region.
	shared map[core.VPN]sharedRef
	// scratch backs Window when shared pages overlay private records.
	scratch *chunk
}

// SharedRegion is a run of pages shared through the location-ID mechanism
// of §2.5: placement hashes (locationID, index) rather than (ASID, VPN), so
// the same frames back every mapping of the region.
type SharedRegion struct {
	id uint32
	// chunks hold the region's page records, ChunkPages to a chunk; n is
	// the region's length in pages.
	chunks []*chunk
	n      int
	// maps counts the VPNs that map the region, over all address spaces:
	// the region is freed when the last one is unmapped.
	maps int
	// mappings lists each (ASID, base VPN) the region was mapped at, in
	// the order the mappings were made, so an evicted page can be shot
	// down in every space that maps it. A page unmapped on its own keeps
	// its mapping's entry; eviction checks the space still maps it.
	mappings []sharedMapping
}

// sharedMapping is one mapping of a shared region: page i of the region
// is VPN base+i of the ASID's space.
type sharedMapping struct {
	asid core.ASID
	base core.VPN
}

// ID is the region's location ID.
func (r *SharedRegion) ID() uint32 { return r.id }

// Len is the region's length in pages.
func (r *SharedRegion) Len() int { return r.n }

// System is a simulated virtual-memory subsystem. It is not safe for
// concurrent use.
type System struct {
	cfg  Config
	mode Mode

	mem  *alloc.Memory        // mosaic mode
	umem *alloc.Unconstrained // vanilla mode

	hlru   *swap.HorizonLRU
	policy *swap.TwoListLRU
	dev    *swap.Device

	spaces  map[core.ASID]*AddressSpace
	regions map[uint32]*SharedRegion
	nextRID uint32

	// lastSpace is the space Space last returned: a stream touches one
	// ASID for long runs, and spaces are never deleted.
	lastSpace *AddressSpace

	clock uint64

	// The frame and CPFN of the page the last Touch resolved, for
	// Resolved: a Touch already holds them, so a caller needing them
	// does not look the page up again.
	lastPFN  core.PFN
	lastCPFN core.CPFN

	// Observability: a registry of typed instruments plus direct handles
	// for the hot-path counters (one integer add per event, no lookups),
	// and an optional structured event log for rare transitions.
	metrics *obs.Registry
	events  *obs.EventLog

	cAccess        *obs.Counter // vm.access
	cMinorFault    *obs.Counter // vm.fault.minor
	cMajorFault    *obs.Counter // vm.fault.major
	cConflict      *obs.Counter // vm.conflict
	cGhostReclaim  *obs.Counter // vm.ghost.reclaim
	cEvict         *obs.Counter // vm.evict
	cConflictEvict *obs.Counter // vm.evict.conflict
	cReclaim       *obs.Counter // vm.reclaim
	cDaemonScan    *obs.Counter // vm.scan.daemon
	cForkCopy      *obs.Counter // vm.fork.copy

	storm stormState

	firstConflictUtil float64
	sawConflict       bool

	lowFrames, highFrames int
	candScratch           []alloc.Candidate
	scan                  *scanState

	evictHook func(asid core.ASID, vpn core.VPN)
	mapHook   func(asid core.ASID, vpn core.VPN)
}

// New creates a System from cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:     cfg,
		mode:    cfg.Mode,
		spaces:  make(map[core.ASID]*AddressSpace),
		regions: make(map[uint32]*SharedRegion),
	}
	if cfg.Obs != nil {
		s.metrics = cfg.Obs.Metrics
		s.events = cfg.Obs.Events
	}
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	s.cAccess = s.metrics.Counter("vm.access")
	s.cMinorFault = s.metrics.Counter("vm.fault.minor")
	s.cMajorFault = s.metrics.Counter("vm.fault.major")
	s.cConflict = s.metrics.Counter("vm.conflict")
	s.cGhostReclaim = s.metrics.Counter("vm.ghost.reclaim")
	s.cEvict = s.metrics.Counter("vm.evict")
	s.cConflictEvict = s.metrics.Counter("vm.evict.conflict")
	s.cReclaim = s.metrics.Counter("vm.reclaim")
	s.cDaemonScan = s.metrics.Counter("vm.scan.daemon")
	s.cForkCopy = s.metrics.Counter("vm.fork.copy")
	s.dev = swap.NewDevice(s.metrics)
	switch cfg.Mode {
	case ModeMosaic:
		s.mem = alloc.NewMemory(cfg.Frames, cfg.Geometry, cfg.Hash)
		s.hlru = swap.NewHorizonLRU()
		s.candScratch = make([]alloc.Candidate, cfg.Geometry.Associativity())
		if cfg.ScanInterval > 0 {
			s.scan = newScanState(s.mem.NumFrames(), cfg.ScanInterval)
		}
	case ModeVanilla:
		if cfg.ScanInterval > 0 {
			return nil, fmt.Errorf("vm: ScanInterval applies to mosaic mode only")
		}
		s.umem = alloc.NewUnconstrained(cfg.Frames)
		s.policy = swap.NewTwoListLRU(cfg.Frames)
		s.lowFrames = int(lowWatermark * float64(cfg.Frames))
		s.highFrames = int(highWatermark * float64(cfg.Frames))
		if s.lowFrames < 1 {
			s.lowFrames = 1
		}
		if s.highFrames < s.lowFrames {
			s.highFrames = s.lowFrames
		}
	default:
		return nil, fmt.Errorf("vm: unknown mode %d", cfg.Mode)
	}
	return s, nil
}

// Mode reports the system's mode.
func (s *System) Mode() Mode { return s.mode }

// NumFrames is the physical memory size in frames.
func (s *System) NumFrames() int {
	if s.mode == ModeMosaic {
		return s.mem.NumFrames()
	}
	return s.umem.NumFrames()
}

// Used is the number of resident pages (mosaic: live + ghost).
func (s *System) Used() int {
	if s.mode == ModeMosaic {
		return s.mem.Used()
	}
	return s.umem.Used()
}

// Utilization is Used over NumFrames.
func (s *System) Utilization() float64 { return float64(s.Used()) / float64(s.NumFrames()) }

// Clock is the logical access clock (one tick per Touch).
func (s *System) Clock() uint64 { return s.clock }

// Device exposes the swap device's I/O counts.
func (s *System) Device() *swap.Device { return s.dev }

// Metrics exposes the instrument registry. The system's counters are
// vm.access, vm.fault.minor, vm.fault.major, vm.conflict, vm.ghost.reclaim,
// vm.evict, vm.evict.conflict, vm.reclaim, vm.scan.daemon, vm.fork.copy,
// plus the swap device's swap.out and swap.in.
func (s *System) Metrics() *obs.Registry { return s.metrics }

// Allocator exposes the iceberg-constrained allocator (mosaic mode only;
// nil in vanilla mode) so samplers can probe slot occupancy by level.
func (s *System) Allocator() *alloc.Memory { return s.mem }

// Horizon reports the Horizon LRU ghost threshold (mosaic mode; zero
// otherwise).
func (s *System) Horizon() uint64 {
	if s.hlru == nil {
		return 0
	}
	return s.hlru.Horizon()
}

// GhostCount counts resident ghost pages (mosaic mode). It scans memory.
func (s *System) GhostCount() int {
	if s.mode != ModeMosaic {
		return 0
	}
	return s.mem.Used() - s.mem.LiveCount(s.hlru.Horizon())
}

// FirstConflictUtilization reports the memory utilization at the moment of
// the first associativity conflict, and whether one has occurred. This is
// the 1−δ column of Table 3.
func (s *System) FirstConflictUtilization() (float64, bool) {
	return s.firstConflictUtil, s.sawConflict
}

// Space returns (creating if needed) the address space for asid. It panics
// for the reserved shared-mapping ASID 0xFFFFFFFF.
func (s *System) Space(asid core.ASID) *AddressSpace {
	if asid == sharedASID {
		panic("vm: ASID 0xFFFFFFFF is reserved for shared mappings")
	}
	if as := s.lastSpace; as != nil && as.asid == asid {
		return as
	}
	as, ok := s.spaces[asid]
	if !ok {
		as = &AddressSpace{asid: asid, dirs: make(map[uint64]*directory)}
		s.spaces[asid] = as
	}
	s.lastSpace = as
	return as
}

// Touch performs one memory access: demand paging, swap-in, recency update.
func (s *System) Touch(asid core.ASID, vpn core.VPN, write bool) AccessResult {
	s.clock++
	s.cAccess.Inc()
	if s.scan != nil && s.clock%s.scan.interval == 0 {
		s.runScan()
	}
	as := s.Space(asid)

	// A shared page's record is its region's, and placement knows the
	// page by the region's owner, not (asid, vpn).
	var c *chunk
	var i int
	if len(as.shared) == 0 {
		c, i = as.record(vpn)
	} else {
		c, i, asid, vpn = as.touchRecord(vpn)
	}
	switch c.state[i] {
	case pageResident:
		pfn := c.pfn[i]
		s.lastPFN, s.lastCPFN = pfn, c.cpfn[i]
		s.touchFrame(pfn, write)
		return Hit
	case pageNone:
		s.cMinorFault.Inc()
		s.fillPage(asid, vpn, c, i, write)
		return MinorFault
	default:
		s.cMajorFault.Inc()
		s.dev.PageIn()
		s.fillPage(asid, vpn, c, i, write)
		return MajorFault
	}
}

// Resolved returns the frame and CPFN (CPFNInvalid in vanilla mode) of
// the page the last Touch made resident. A page is resident the moment
// Touch returns, whatever it had to do, so this is the translation of the
// page just touched until the next Touch or Unmap.
func (s *System) Resolved() (core.PFN, core.CPFN) { return s.lastPFN, s.lastCPFN }

// TouchVA is Touch keyed by virtual address rather than VPN.
func (s *System) TouchVA(asid core.ASID, va uint64, write bool) AccessResult {
	return s.Touch(asid, core.VPNOf(va), write)
}

func (s *System) touchFrame(pfn core.PFN, write bool) {
	if s.mode == ModeMosaic {
		if s.scan != nil {
			// Access-bit emulation: hardware sets only the bit; the scan
			// daemon converts it to a timestamp later.
			s.scan.accessed[pfn] = true
			if write {
				s.mem.MarkDirty(pfn)
			}
			return
		}
		s.mem.Touch(pfn, s.clock, write)
		return
	}
	s.umem.Touch(pfn, s.clock, write)
	s.policy.OnAccess(pfn)
}

// fillPage allocates a frame for the page placement knows as (asid, vpn),
// as the page the current access resolves to, and installs it in record i
// of c, stamped with the current clock.
func (s *System) fillPage(asid core.ASID, vpn core.VPN, c *chunk, i int, write bool) {
	pfn, cpfn := s.allocate(asid, vpn)
	s.lastPFN, s.lastCPFN = pfn, cpfn
	if write {
		s.touchDirty(pfn)
	}
	c.setResident(i, pfn, cpfn, s.clock)
}

func (s *System) touchDirty(pfn core.PFN) {
	if s.mode == ModeMosaic {
		s.mem.Touch(pfn, s.clock, true)
	} else {
		s.umem.Touch(pfn, s.clock, true)
	}
}

// allocate places (asid, vpn), evicting as required by the mode's policy.
func (s *System) allocate(asid core.ASID, vpn core.VPN) (core.PFN, core.CPFN) {
	if s.mode == ModeMosaic {
		return s.allocateMosaic(asid, vpn)
	}
	return s.allocateVanilla(asid, vpn), core.CPFNInvalid
}

func (s *System) allocateMosaic(asid core.ASID, vpn core.VPN) (core.PFN, core.CPFN) {
	p, err := s.mem.Place(asid, vpn, s.clock, s.hlru.Horizon())
	if err == nil {
		if p.Evicted != nil {
			// A ghost's frame was reclaimed: the ghost now really leaves
			// memory, which is when its swap-out happens.
			s.cGhostReclaim.Inc()
			s.recordEviction(*p.Evicted)
		}
		return p.PFN, p.CPFN
	}
	if !errors.Is(err, alloc.ErrConflict) {
		//lint:ignore nopanic Place documents ErrConflict as its only error; anything else is an allocator bug
		panic(fmt.Sprintf("vm: unexpected placement error: %v", err))
	}
	// Associativity conflict (§2.4): evict the LRU page among the
	// candidates, raise the horizon to its access time (ghosting every
	// older page globally), and take over the victim's slot.
	s.cConflict.Inc()
	if !s.sawConflict {
		s.sawConflict = true
		s.firstConflictUtil = s.mem.Utilization()
		if s.events != nil {
			s.events.Emit(obs.Event{
				Ref: s.clock, Component: "vm", Kind: "conflict.first", Severity: obs.Info,
				Message: "first associativity conflict (1-delta of Table 3)",
				Fields:  map[string]float64{"utilization": s.firstConflictUtil},
			})
		}
	}
	cands := s.mem.Candidates(asid, vpn, s.candScratch)
	victim, ok := s.hlru.PickVictim(cands)
	if !ok {
		//lint:ignore nopanic ErrConflict means all candidate slots hold live pages, so a victim must exist
		panic("vm: conflict with no occupied candidates")
	}
	if !s.cfg.DisableHorizon {
		before := s.hlru.Horizon()
		s.hlru.NoteEviction(victim.LastAccess)
		if after := s.hlru.Horizon(); after > before && s.events != nil {
			s.events.Emit(obs.Event{
				Ref: s.clock, Component: "vm", Kind: "horizon.advance", Severity: obs.Info,
				Fields: map[string]float64{"from": float64(before), "to": float64(after)},
			})
		}
	}
	owner := s.mem.Evict(victim.PFN)
	s.cConflictEvict.Inc()
	s.recordEviction(owner)
	p = s.mem.PlaceAt(asid, vpn, victim.CPFN, s.clock)
	return p.PFN, p.CPFN
}

func (s *System) allocateVanilla(asid core.ASID, vpn core.VPN) core.PFN {
	// kswapd emulation: once free memory dips below the low watermark,
	// reclaim until the high watermark is restored.
	if s.umem.FreeFrames() <= s.lowFrames {
		for s.umem.FreeFrames() < s.highFrames && s.policy.Len() > 0 {
			s.reclaimOneVanilla()
		}
	}
	for {
		pfn, err := s.umem.Place(asid, vpn, s.clock)
		if err == nil {
			s.policy.OnFault(pfn)
			return pfn
		}
		if !errors.Is(err, alloc.ErrNoMemory) {
			//lint:ignore nopanic Unconstrained.Place documents ErrNoMemory as its only error
			panic(fmt.Sprintf("vm: unexpected placement error: %v", err))
		}
		// Direct reclaim.
		s.reclaimOneVanilla()
	}
}

func (s *System) reclaimOneVanilla() {
	victim := s.policy.Victim()
	s.policy.OnRemove(victim)
	owner := s.umem.Evict(victim)
	s.cReclaim.Inc()
	s.recordEviction(owner)
}

// OnEvict registers fn to run whenever a page leaves memory for swap —
// the hook the memory-system simulator uses for page-table invalidation
// and TLB shootdown. fn runs once for each (ASID, VPN) that maps the page:
// a shared-region page reports every mapping of it, in the order the
// mappings were made, and a shared page no space maps any more reports
// none.
func (s *System) OnEvict(fn func(asid core.ASID, vpn core.VPN)) { s.evictHook = fn }

// OnMap registers fn to run for every page a mapping makes visible in an
// address space without a fault there: each page of a MapShared mapping
// and each page a ForkCopy child inherits, in a deterministic order. Such
// a page's first Touch in that space can be a Hit, so this is the hook the
// memory-system simulator uses to build the space's page-table path to it.
func (s *System) OnMap(fn func(asid core.ASID, vpn core.VPN)) { s.mapHook = fn }

func (s *System) notifyMap(asid core.ASID, vpn core.VPN) {
	if s.mapHook != nil {
		s.mapHook(asid, vpn)
	}
}

// Eviction-storm detection: stormThreshold evictions within one
// stormWindow of the access clock is thrashing-grade pressure worth a
// structured warning (once per window, not once per eviction).
const (
	stormWindow    = 1024
	stormThreshold = 64
)

type stormState struct {
	windowStart uint64
	count       uint64
	warned      bool
}

// noteEvictionStorm advances the storm window and emits at most one warning
// per window once the threshold is crossed.
func (s *System) noteEvictionStorm() {
	st := &s.storm
	if s.clock-st.windowStart >= stormWindow {
		st.windowStart = s.clock
		st.count = 0
		st.warned = false
	}
	st.count++
	if st.count >= stormThreshold && !st.warned {
		st.warned = true
		s.events.Emit(obs.Event{
			Ref: s.clock, Component: "vm", Kind: "eviction.storm", Severity: obs.Warn,
			Message: "eviction rate at thrashing levels",
			Fields: map[string]float64{
				"evictions":   float64(st.count),
				"window_refs": float64(stormWindow),
				"utilization": s.Utilization(),
			},
		})
	}
}

// recordEviction counts an evicted page's write to swap and marks its
// record, in the owning address space or shared region, swapped.
func (s *System) recordEviction(owner alloc.Owner) {
	s.cEvict.Inc()
	if s.events != nil {
		s.noteEvictionStorm()
	}
	var c *chunk
	var i int
	if owner.ASID == sharedASID {
		rid, idx := splitSharedVPN(owner.VPN)
		r, ok := s.regions[rid]
		if !ok {
			//lint:ignore nopanic shared owners are minted from live regions, and regions are never deleted
			panic(fmt.Sprintf("vm: evicted page of unknown shared region %d", rid))
		}
		if s.evictHook != nil {
			for _, m := range r.mappings {
				vpn := m.base + core.VPN(idx)
				if ref, ok := s.spaces[m.asid].shared[vpn]; ok && ref.region == r && ref.index == idx {
					s.evictHook(m.asid, vpn)
				}
			}
		}
		c, i = r.record(idx)
	} else {
		if s.evictHook != nil {
			s.evictHook(owner.ASID, owner.VPN)
		}
		as, ok := s.spaces[owner.ASID]
		if !ok {
			//lint:ignore nopanic frame owners are recorded at placement from existing spaces
			panic(fmt.Sprintf("vm: evicted page of unknown ASID %d", owner.ASID))
		}
		c, i = as.lookup(owner.VPN)
	}
	if c == nil || c.state[i] != pageResident {
		//lint:ignore nopanic the allocator reported this owner as occupying the frame, so its record must show it resident
		panic(fmt.Sprintf("vm: evicted page (asid %d, vpn %#x) not resident in its record", owner.ASID, owner.VPN))
	}
	s.dev.PageOut()
	c.setAbsent(i, pageSwapped)
}

// resolve returns the frame and CPFN of (asid, vpn) if resident.
func (s *System) resolve(asid core.ASID, vpn core.VPN) (core.PFN, core.CPFN, bool) {
	as, ok := s.spaces[asid]
	if !ok {
		return 0, core.CPFNInvalid, false
	}
	var c *chunk
	var i int
	if ref, ok := as.shared[vpn]; ok {
		c, i = ref.region.record(ref.index)
	} else {
		c, i = as.lookup(vpn)
	}
	if c == nil || c.state[i] != pageResident {
		return 0, core.CPFNInvalid, false
	}
	return c.pfn[i], c.cpfn[i], true
}

// Translate returns the physical frame of (asid, vpn) if resident.
func (s *System) Translate(asid core.ASID, vpn core.VPN) (core.PFN, bool) {
	pfn, _, ok := s.resolve(asid, vpn)
	if !ok {
		return 0, false
	}
	return pfn, true
}

// CPFNFor returns the compressed frame number of (asid, vpn) if resident
// (mosaic mode only) — what a mosaic page-table leaf stores.
func (s *System) CPFNFor(asid core.ASID, vpn core.VPN) (core.CPFN, bool) {
	_, cpfn, ok := s.resolve(asid, vpn)
	if s.mode != ModeMosaic || !ok {
		return core.CPFNInvalid, false
	}
	return cpfn, true
}

// Resident reports whether (asid, vpn) is currently in memory.
func (s *System) Resident(asid core.ASID, vpn core.VPN) bool {
	_, ok := s.Translate(asid, vpn)
	return ok
}

// Unmap destroys the mapping of (asid, vpn), freeing its frame if it is
// resident. It reports whether a mapping existed.
func (s *System) Unmap(asid core.ASID, vpn core.VPN) bool {
	as, ok := s.spaces[asid]
	if !ok {
		return false
	}
	if ref, ok := as.shared[vpn]; ok {
		delete(as.shared, vpn)
		s.releaseShared(ref.region, 1)
		return true
	}
	c, i := as.lookup(vpn)
	if c == nil || c.state[i] == pageNone {
		return false
	}
	if c.state[i] == pageResident {
		s.freeFrame(c.pfn[i])
	}
	c.setAbsent(i, pageNone)
	return true
}

// freeFrame returns a resident page's frame to the allocator.
func (s *System) freeFrame(pfn core.PFN) {
	if s.mode == ModeMosaic {
		s.mem.Free(pfn)
	} else {
		s.policy.OnRemove(pfn)
		s.umem.Free(pfn)
	}
}

// MappedPages reports the number of mapped pages (resident or swapped) in
// asid's space, excluding shared mappings.
func (s *System) MappedPages(asid core.ASID) int {
	as, ok := s.spaces[asid]
	if !ok {
		return 0
	}
	n := 0
	as.each(func(core.VPN, *chunk, int) { n++ })
	return n
}
