// Package cache models a multi-level set-associative cache hierarchy with
// true-LRU replacement and write-back/write-allocate semantics, matching
// the memory system of Table 1a (L1i/L1d, unified L2, unified L3). The
// memory-system simulator routes both data references and page-table-walker
// reads through a Hierarchy, so walk traffic pollutes the caches as it does
// in the paper's gem5 configuration.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	// Name labels the level in statistics ("L1d", "L2", …).
	Name string
	// Size is the capacity in bytes.
	Size int
	// Ways is the set associativity.
	Ways int
	// LineSize is the block size in bytes (default 64).
	LineSize int
	// Latency is the access latency in cycles (informational, used for the
	// aggregate latency estimate).
	Latency int
}

func (c *Config) applyDefaults() error {
	if c.LineSize == 0 {
		c.LineSize = 64
	}
	if c.Size <= 0 || c.Ways <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("cache: %s: size %d, ways %d, line %d must be positive",
			c.Name, c.Size, c.Ways, c.LineSize)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: %s: line size %d not a power of two", c.Name, c.LineSize)
	}
	lines := c.Size / c.LineSize
	if lines*c.LineSize != c.Size || lines%c.Ways != 0 {
		return fmt.Errorf("cache: %s: size %d not divisible into %d-way sets of %d-byte lines",
			c.Name, c.Size, c.Ways, c.LineSize)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts per-level events.
type Stats struct {
	Hits, Misses, Evictions, Writebacks uint64
}

// MissRate is Misses over (Hits + Misses).
func (s Stats) MissRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Misses) / float64(t)
	}
	return 0
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // smaller = older
}

// Level is a single cache. The lines of all sets live in one flat backing
// array indexed by set*ways+way, so a probe computes its set base with one
// multiply instead of loading a per-set slice header — the same
// struct-of-arrays discipline the TLB sets use, and the layout the batched
// replay hot path leans on.
type Level struct {
	cfg       Config
	lines     []line
	ways      int
	setMask   uint64
	lineShift uint
	tick      uint64
	stats     Stats
}

// NewLevel builds one cache level.
func NewLevel(cfg Config) (*Level, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	numSets := cfg.Size / cfg.LineSize / cfg.Ways
	l := &Level{cfg: cfg, ways: cfg.Ways, setMask: uint64(numSets - 1)}
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	l.lineShift = shift
	l.lines = make([]line, numSets*cfg.Ways)
	return l, nil
}

// set returns the ways of the set holding tag as a full-capacity subslice.
// The three-index form keeps neighbouring sets unreachable and gives the
// probe loops a slice whose length the compiler knows is exactly ways, so
// the range loops in lookup and fill run without bounds checks.
func (l *Level) set(tag uint64) []line {
	base := int(tag&l.setMask) * l.ways
	return l.lines[base : base+l.ways : base+l.ways]
}

// Config returns the level's configuration (with defaults applied).
func (l *Level) Config() Config { return l.cfg }

// Stats returns the level's counters.
func (l *Level) Stats() Stats { return l.stats }

// lookup probes for the line containing pa; on hit it updates recency and
// dirtiness.
func (l *Level) lookup(pa uint64, write bool) bool {
	tag := pa >> l.lineShift
	set := l.set(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			l.tick++
			set[i].lru = l.tick
			if write {
				set[i].dirty = true
			}
			l.stats.Hits++
			return true
		}
	}
	l.stats.Misses++
	return false
}

// fill inserts the line containing pa, returning the victim line's address
// and dirtiness if a valid line was evicted.
func (l *Level) fill(pa uint64, dirty bool) (victimPA uint64, victimDirty, evicted bool) {
	tag := pa >> l.lineShift
	set := l.set(tag)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto place
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	evicted = true
	victimPA = set[victim].tag << l.lineShift
	victimDirty = set[victim].dirty
	l.stats.Evictions++
place:
	l.tick++
	set[victim] = line{tag: tag, valid: true, dirty: dirty, lru: l.tick}
	return victimPA, victimDirty, evicted
}

// contains probes without updating any state (test helper).
func (l *Level) contains(pa uint64) bool {
	tag := pa >> l.lineShift
	for _, ln := range l.set(tag) {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// Hierarchy chains levels; a miss at level i falls through to level i+1 and
// finally to memory. Fills propagate back up (each missed level receives
// the line); dirty victims write back into the next level down.
type Hierarchy struct {
	levels     []*Level
	memLatency int
	memReads   uint64
	memWrites  uint64
	totalCyc   uint64
	accesses   uint64
}

// NewHierarchy builds a hierarchy from outermost-first configs (L1 first).
// memLatency is the DRAM access latency in cycles.
func NewHierarchy(memLatency int, cfgs ...Config) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one level")
	}
	if memLatency <= 0 {
		memLatency = 100
	}
	h := &Hierarchy{memLatency: memLatency}
	for _, cfg := range cfgs {
		l, err := NewLevel(cfg)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, l)
	}
	return h, nil
}

// Levels exposes the individual levels, L1 first.
func (h *Hierarchy) Levels() []*Level { return h.levels }

// Access performs one physical-address access, returning its modeled
// latency in cycles.
func (h *Hierarchy) Access(pa uint64, write bool) int {
	h.accesses++
	latency := 0
	hitLevel := -1
	for i, l := range h.levels {
		latency += l.cfg.Latency
		if l.lookup(pa, write && i == 0) {
			hitLevel = i
			break
		}
	}
	if hitLevel < 0 {
		latency += h.memLatency
		h.memReads++
	}
	// Fill the line into every level that missed, propagating dirty
	// victims downward.
	from := len(h.levels) - 1
	if hitLevel >= 0 {
		from = hitLevel - 1
	}
	for i := from; i >= 0; i-- {
		dirty := write && i == 0
		victimPA, victimDirty, evicted := h.levels[i].fill(pa, dirty)
		if evicted && victimDirty {
			h.levels[i].stats.Writebacks++
			h.writeBack(i+1, victimPA)
		}
	}
	h.totalCyc += uint64(latency)
	return latency
}

// writeBack deposits a dirty victim into level i (or memory).
func (h *Hierarchy) writeBack(i int, pa uint64) {
	if i >= len(h.levels) {
		h.memWrites++
		return
	}
	l := h.levels[i]
	tag := pa >> l.lineShift
	set := l.set(tag)
	for j := range set {
		if set[j].valid && set[j].tag == tag {
			set[j].dirty = true
			return
		}
	}
	// Victim not present below (exclusive-ish moment): allocate it there.
	victimPA, victimDirty, evicted := l.fill(pa, true)
	if evicted && victimDirty {
		l.stats.Writebacks++
		h.writeBack(i+1, victimPA)
	}
}

// MemReads is the number of DRAM read accesses (demand misses).
func (h *Hierarchy) MemReads() uint64 { return h.memReads }

// MemWrites is the number of DRAM write-backs.
func (h *Hierarchy) MemWrites() uint64 { return h.memWrites }

// Accesses is the total number of Access calls.
func (h *Hierarchy) Accesses() uint64 { return h.accesses }

// TotalCycles is the sum of modeled access latencies.
func (h *Hierarchy) TotalCycles() uint64 { return h.totalCyc }

// AMAT is the average memory access time in cycles.
func (h *Hierarchy) AMAT() float64 {
	if h.accesses == 0 {
		return 0
	}
	return float64(h.totalCyc) / float64(h.accesses)
}

// Table1a returns the cache configuration of the paper's gem5 platform:
// 64 KiB 2-way L1d, 32 KiB 2-way L1i, 2 MiB 8-way L2, 16 MiB 16-way L3.
// The instruction cache is omitted here because the simulator replays data
// references; use it separately if modeling fetch.
func Table1a() []Config {
	return []Config{
		{Name: "L1d", Size: 64 << 10, Ways: 2, Latency: 2},
		{Name: "L2", Size: 2 << 20, Ways: 8, Latency: 12},
		{Name: "L3", Size: 16 << 20, Ways: 16, Latency: 35},
	}
}
