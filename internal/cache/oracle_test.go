package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The differential oracle replays one access sequence through a Hierarchy
// and through a naive model: per level, each set is a slice of lines in
// MRU-first order, searched linearly, with write-back and write-allocate.
// The model shares no code with Level, so a victim-choice, recency, dirty
// bit or write-back bug in the flat-array levels shows up as a divergence
// in the counters, the latency or the cached lines.

// oracleShapes are the hierarchies under test, small enough that every
// level fills and evicts: a three-level Table 1a miniature, a direct-mapped
// single level, a fully associative L1 over an L2 of the same size, and
// levels with different line sizes.
var oracleShapes = [][]Config{
	{
		{Name: "L1", Size: 256, Ways: 2, Latency: 2},
		{Name: "L2", Size: 1024, Ways: 4, Latency: 12},
		{Name: "L3", Size: 4096, Ways: 8, Latency: 35},
	},
	{
		{Name: "L1", Size: 512, Ways: 1, Latency: 3},
	},
	{
		{Name: "L1", Size: 512, Ways: 8, Latency: 1},
		{Name: "L2", Size: 512, Ways: 2, Latency: 9},
	},
	{
		{Name: "L1", Size: 128, Ways: 2, LineSize: 32, Latency: 2},
		{Name: "L2", Size: 1024, Ways: 4, LineSize: 128, Latency: 10},
	},
}

const oracleMemLatency = 100

type modelLine struct {
	tag   uint64
	dirty bool
}

type modelLevel struct {
	cfg   Config
	sets  [][]modelLine // MRU first
	stats Stats
}

func (m *modelLevel) locate(pa uint64) (set []modelLine, si int, tag uint64) {
	tag = pa / uint64(m.cfg.LineSize)
	si = int(tag % uint64(len(m.sets)))
	return m.sets[si], si, tag
}

type cacheModel struct {
	levels              []*modelLevel
	memReads, memWrites uint64
	cycles, accesses    uint64
}

func newCacheModel(cfgs []Config) *cacheModel {
	m := &cacheModel{}
	for _, cfg := range cfgs {
		if cfg.LineSize == 0 {
			cfg.LineSize = 64
		}
		sets := cfg.Size / cfg.LineSize / cfg.Ways
		m.levels = append(m.levels, &modelLevel{cfg: cfg, sets: make([][]modelLine, sets)})
	}
	return m
}

// access mirrors Hierarchy.Access: probe outward in, pay each probed
// level's latency, then allocate the line in every level that missed,
// deepest first. Only the L1 copy of a store is dirty.
func (m *cacheModel) access(pa uint64, write bool) int {
	m.accesses++
	latency := 0
	hit := len(m.levels)
	for i, l := range m.levels {
		latency += l.cfg.Latency
		set, si, tag := l.locate(pa)
		if j := slices.IndexFunc(set, func(ln modelLine) bool { return ln.tag == tag }); j >= 0 {
			ln := set[j]
			ln.dirty = ln.dirty || (write && i == 0)
			l.sets[si] = append([]modelLine{ln}, slices.Delete(set, j, j+1)...)
			l.stats.Hits++
			hit = i
			break
		}
		l.stats.Misses++
	}
	if hit == len(m.levels) {
		latency += oracleMemLatency
		m.memReads++
	}
	for i := hit - 1; i >= 0; i-- {
		m.allocate(i, pa, write && i == 0)
	}
	m.cycles += uint64(latency)
	return latency
}

// allocate installs pa's line as MRU in level i, evicting the LRU line of
// a full set and writing it back one level down if it is dirty.
func (m *cacheModel) allocate(i int, pa uint64, dirty bool) {
	l := m.levels[i]
	set, si, tag := l.locate(pa)
	var victim *modelLine
	if len(set) == l.cfg.Ways {
		v := set[len(set)-1]
		victim, set = &v, set[:len(set)-1]
		l.stats.Evictions++
	}
	l.sets[si] = append([]modelLine{{tag: tag, dirty: dirty}}, set...)
	if victim != nil && victim.dirty {
		l.stats.Writebacks++
		m.writeBack(i+1, victim.tag*uint64(l.cfg.LineSize))
	}
}

// writeBack marks pa's line dirty in level i without touching its recency,
// allocating it there if absent; past the last level it is a DRAM write.
func (m *cacheModel) writeBack(i int, pa uint64) {
	if i == len(m.levels) {
		m.memWrites++
		return
	}
	set, _, tag := m.levels[i].locate(pa)
	if j := slices.IndexFunc(set, func(ln modelLine) bool { return ln.tag == tag }); j >= 0 {
		set[j].dirty = true
		return
	}
	m.allocate(i, pa, true)
}

// cacheOracle drives a Hierarchy and its model in lockstep.
type cacheOracle struct {
	t     testing.TB
	h     *Hierarchy
	m     *cacheModel
	span  uint64
	ops   int
	shape int
}

func newCacheOracle(t testing.TB, shape int) *cacheOracle {
	cfgs := oracleShapes[shape]
	h, err := NewHierarchy(oracleMemLatency, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	// Addresses span four times the largest level, so lines are reused
	// often enough to hit and evicted often enough to write back.
	var span uint64
	for _, c := range cfgs {
		span = max(span, 4*uint64(c.Size))
	}
	return &cacheOracle{t: t, h: h, m: newCacheModel(cfgs), span: span, shape: shape}
}

// step decodes one access: bit 0 of flags makes it a store, and bit 7
// moves it far above the span so tags carry high bits.
func (o *cacheOracle) step(hi, lo, flags byte) {
	pa := (uint64(hi)<<8 | uint64(lo)) * 8 % o.span
	if flags&0x80 != 0 {
		pa |= 1 << 40
	}
	write := flags&1 != 0
	got, want := o.h.Access(pa, write), o.m.access(pa, write)
	o.ops++
	if got != want {
		o.t.Fatalf("shape %d op %d: Access(%#x, %v) latency %d, model %d", o.shape, o.ops, pa, write, got, want)
	}
	o.check()
}

// check compares every counter and every level's cached lines, with their
// dirty bits, against the model.
func (o *cacheOracle) check() {
	o.t.Helper()
	h, m := o.h, o.m
	if h.MemReads() != m.memReads || h.MemWrites() != m.memWrites ||
		h.TotalCycles() != m.cycles || h.Accesses() != m.accesses {
		o.t.Fatalf("shape %d op %d: mem reads/writes %d/%d cycles %d accesses %d; model %d/%d %d %d",
			o.shape, o.ops, h.MemReads(), h.MemWrites(), h.TotalCycles(), h.Accesses(),
			m.memReads, m.memWrites, m.cycles, m.accesses)
	}
	for i, l := range h.Levels() {
		ml := m.levels[i]
		if l.Stats() != ml.stats {
			o.t.Fatalf("shape %d op %d: %s stats %+v, model %+v", o.shape, o.ops, l.Config().Name, l.Stats(), ml.stats)
		}
		var got, want []string
		for _, ln := range l.lines {
			if ln.valid {
				got = append(got, fmt.Sprintf("%#x/%v", ln.tag, ln.dirty))
			}
		}
		for _, set := range ml.sets {
			for _, ln := range set {
				want = append(want, fmt.Sprintf("%#x/%v", ln.tag, ln.dirty))
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			o.t.Fatalf("shape %d op %d: %s lines diverged:\n got  %v\n want %v", o.shape, o.ops, l.Config().Name, got, want)
		}
	}
}

// runCacheOracle decodes prog three bytes per access.
func runCacheOracle(t testing.TB, shape int, prog []byte) {
	o := newCacheOracle(t, shape)
	for ; len(prog) >= 3; prog = prog[3:] {
		o.step(prog[0], prog[1], prog[2])
	}
}

func TestCacheOracle(t *testing.T) {
	for shape := range oracleShapes {
		t.Run(fmt.Sprintf("shape=%d", shape), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(shape) + 1))
			prog := make([]byte, 3*4000)
			rng.Read(prog)
			runCacheOracle(t, shape, prog)
		})
	}
}

func FuzzCacheOracle(f *testing.F) {
	// One seed per shape: stores, conflicting accesses that evict them
	// dirty, a far-away tag, then reloads.
	f.Add(byte(0), []byte{0, 0, 1, 0, 16, 0, 0, 32, 0, 0, 0, 0})
	f.Add(byte(1), []byte{0, 0, 1, 0, 8, 1, 0, 0, 0x80, 0, 8, 0})
	f.Add(byte(2), []byte{0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 0, 1, 0})
	f.Add(byte(3), []byte{0, 4, 1, 0, 20, 1, 0, 36, 0, 0, 4, 0})
	f.Fuzz(func(t *testing.T, shape byte, prog []byte) {
		runCacheOracle(t, int(shape)%len(oracleShapes), prog)
	})
}
