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
//
// No update reads a value to choose its address, so GUPS keeps the
// table's address, not its words: the arena reserves the table, Run emits
// each update's load and store of its word, and Checksum is a running XOR
// of the update values, which is the XOR of the table the updates would
// leave (it starts zeroed, and each update XORs its value into one word).
type GUPS struct {
	cfg   GUPSConfig
	arena *Arena
	table uint64 // the table's VA
	mask  uint64
	sum   uint64 // XOR of the values of every update run
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
	g.table = g.arena.Alloc(uint64(w)*8, 8)
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
		va := g.table + (r&g.mask)*8
		b.Access(va, false)
		b.Access(va, true)
		g.sum ^= r
	}
}

// Checksum is the XOR of the whole table after the updates run so far
// (test hook; does not emit references).
func (g *GUPS) Checksum() uint64 { return g.sum }
