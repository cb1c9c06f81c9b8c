package workloads

import (
	"mosaic/internal/rng"
	"mosaic/internal/trace"
)

// GUPSConfig parameterizes the GUPS workload.
type GUPSConfig struct {
	// TargetBytes sizes the table. Ignored if TableWords is set.
	TargetBytes uint64
	// TableWords is the table length (rounded down to a power of two).
	TableWords int
	// Updates is the number of read-modify-write updates (default
	// 2× TableWords; the HPCC benchmark uses 4×).
	Updates int
	// Seed drives the update sequence.
	Seed uint64
}

// GUPS is the paper's third workload: the HPCC RandomAccess microbenchmark.
// Every update XORs a pseudorandom value into a uniformly random table
// word, the worst case for every locality mechanism — the paper notes
// mosaic helps it least, "unsurprising, because GUPS is a synthetic
// benchmark designed to stress the system with extremely random memory
// accesses".
type GUPS struct {
	cfg   GUPSConfig
	arena *Arena
	table *U64Array
	mask  uint64
}

// NewGUPS builds the workload.
func NewGUPS(cfg GUPSConfig) *GUPS {
	if cfg.TableWords == 0 {
		if cfg.TargetBytes == 0 {
			cfg.TargetBytes = 32 << 20
		}
		cfg.TableWords = int(cfg.TargetBytes / 8)
	}
	// Round down to a power of two, as HPCC requires.
	w := 1
	for w*2 <= cfg.TableWords {
		w *= 2
	}
	cfg.TableWords = w
	if cfg.Updates == 0 {
		cfg.Updates = 2 * cfg.TableWords
	}
	g := &GUPS{cfg: cfg, arena: NewArena(0), mask: uint64(w - 1)}
	g.table = NewU64Array(g.arena, w)
	return g
}

// Name implements Workload.
func (g *GUPS) Name() string { return "gups" }

// FootprintBytes implements Workload.
func (g *GUPS) FootprintBytes() uint64 { return g.arena.Size() }

// TableWords is the (power-of-two) table length.
func (g *GUPS) TableWords() int { return g.cfg.TableWords }

// Run implements Workload: the HPCC update loop. Each update is one load
// and one store of the same word (two TLB references, as the hardware
// would issue).
func (g *GUPS) Run(b *trace.Batcher) {
	rnd := rng.Derive(g.cfg.Seed, 0x67757073) // "gups"
	for i := 0; i < g.cfg.Updates && !b.Done(); i++ {
		r := rnd.Uint64()
		idx := int(r & g.mask)
		v := g.table.Get(b, idx)
		g.table.Set(b, idx, v^r)
	}
}

// Checksum XORs the whole table (test hook; does not emit references).
func (g *GUPS) Checksum() uint64 {
	var sum uint64
	for _, v := range g.table.Data {
		sum ^= v
	}
	return sum
}
