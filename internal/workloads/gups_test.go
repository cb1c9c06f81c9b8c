package workloads

import (
	"fmt"
	"testing"

	"mosaic/internal/rng"
	"mosaic/internal/trace"
)

// refGUPS is the reference model for GUPS: the HPCC update loop over a
// materialized table, whose words the updates really read and write.
type refGUPS struct {
	cfg   GUPSConfig
	arena *Arena
	table *U64Array
}

// newRefGUPS sizes the model exactly as NewGUPS sizes the workload.
func newRefGUPS(cfg GUPSConfig) *refGUPS {
	g := &refGUPS{cfg: NewGUPS(cfg).cfg, arena: NewArena(0)}
	g.table = NewU64Array(g.arena, g.cfg.TableWords)
	return g
}

func (g *refGUPS) Name() string           { return "gups" }
func (g *refGUPS) FootprintBytes() uint64 { return g.arena.Size() }

func (g *refGUPS) Run(b *trace.Batcher) {
	rnd := rng.Derive(g.cfg.Seed, 0x67757073) // "gups"
	for i := 0; i < g.cfg.Updates && !b.Done(); i++ {
		r := rnd.Uint64()
		idx := int(r & uint64(g.cfg.TableWords-1))
		v := g.table.Get(b, idx)
		g.table.Set(b, idx, v^r)
	}
}

// checksum XORs the whole table.
func (g *refGUPS) checksum() uint64 {
	var sum uint64
	for _, v := range g.table.Data {
		sum ^= v
	}
	return sum
}

// TestGUPSChecksumMatchesTable runs GUPS and the materialized-table model
// on one configuration, whole and under budgets that end after an
// update's load or after its store: the two emit the same stream and
// footprint, and Checksum equals the XOR of the model's table.
func TestGUPSChecksumMatchesTable(t *testing.T) {
	for _, c := range []struct {
		cfg GUPSConfig
		max uint64 // 0 = unlimited
	}{
		{GUPSConfig{TableWords: 1 << 10, Updates: 1 << 13, Seed: 1}, 0},
		{GUPSConfig{TableWords: 1 << 12, Updates: 1 << 12, Seed: 2}, 5001},
		{GUPSConfig{TableWords: 1000, Updates: 300, Seed: 3}, 400},
		{GUPSConfig{TargetBytes: 1 << 16, Seed: 4}, 0},
	} {
		t.Run(fmt.Sprintf("seed=%d/max=%d", c.cfg.Seed, c.max), func(t *testing.T) {
			g, ref := NewGUPS(c.cfg), newRefGUPS(c.cfg)
			got, want := recordCapped(g, c.max), recordCapped(ref, c.max)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("streams differ at reference %d of %d/%d", i, len(got), len(want))
			}
			if g.FootprintBytes() != ref.FootprintBytes() {
				t.Fatalf("footprint %d, the model's %d", g.FootprintBytes(), ref.FootprintBytes())
			}
			if sum := ref.checksum(); g.Checksum() != sum || sum == 0 {
				t.Fatalf("Checksum %#x, the model's table XORs to %#x", g.Checksum(), sum)
			}
		})
	}
}
