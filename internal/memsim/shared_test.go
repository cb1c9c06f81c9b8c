package memsim

import (
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/invariant"
	"mosaic/internal/tlb"
)

// TestMappingsWithoutFaultWalk: a page can become visible in an address
// space without that space faulting it in — a shared region another space
// already touched, a second mapping of a region in the same space, or a
// page a forked child inherits. Its first reference through the new
// mapping is an OS hit, and every unit must still walk mapped nodes to it,
// with caches and the walk cache on and the coherence audit after every
// reference.
func TestMappingsWithoutFaultWalk(t *testing.T) {
	cfg := func() Config {
		return Config{
			Frames: 1 << 14, Seed: 3, EnableCaches: true, EnableWalkCache: true, CheckEvery: 1,
			Specs: append(specs(16, 4, 4, 64), TLBSpec{Geometry: tlb.Geometry{Entries: 16, Ways: 4}, Coalesce: 4}),
		}
	}
	page := func(vpn core.VPN, i int) uint64 { return uint64(vpn+core.VPN(i)) * core.PageSize }

	t.Run("across-asids", func(t *testing.T) {
		s := newSim(t, cfg())
		region, err := s.OS().CreateSharedRegion(8)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []struct {
			asid core.ASID
			base core.VPN
		}{{1, 0x200}, {2, 0x200}, {2, 0x5000}} {
			if err := s.OS().MapShared(m.asid, m.base, region); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			s.AccessFrom(1, page(0x200, i), i%2 == 0)
			s.AccessFrom(2, page(0x200, i), false)
			s.AccessFrom(2, page(0x5000, i), true)
		}
		for _, r := range s.Results() {
			if r.Walks == 0 {
				t.Errorf("%s made no walk", r.Spec.Label())
			}
		}
	})

	t.Run("duplicate-in-one-asid", func(t *testing.T) {
		s := newSim(t, cfg())
		region, err := s.OS().CreateSharedRegion(16)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []core.VPN{0x7f0000, 0x900} {
			if err := s.OS().MapShared(1, base, region); err != nil {
				t.Fatal(err)
			}
		}
		s.Access(page(0x7f0000, 0), true)
		s.Access(page(0x900, 0), false)
		for i := 0; i < 16; i++ {
			s.Access(page(0x900, i), false)
			s.Access(page(0x7f0000, i), false)
		}
	})

	t.Run("fork-child", func(t *testing.T) {
		s := newSim(t, cfg())
		region, err := s.OS().CreateSharedRegion(4)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.OS().MapShared(1, 0x300, region); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			s.Access(page(0x300, i), true)
			s.Access(page(0x1000, i), true)
		}
		if _, err := s.OS().ForkCopy(1, 2); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			s.AccessFrom(2, page(0x1000, i), false)
			s.AccessFrom(2, page(0x300, i), false)
		}
	})
}

// TestSharedEvictionShootsDownEveryMapping: a shared page that leaves
// memory must be shot down under every (ASID, VPN) that maps it — two
// spaces that mapped the region and a forked child that inherited one
// mapping — or those TLB entries would keep translating to a frame the
// OS gave away. After the eviction the coherence audit must pass, and the
// next reference through each mapping must miss in every unit.
func TestSharedEvictionShootsDownEveryMapping(t *testing.T) {
	g := tlb.Geometry{Entries: 2048, Ways: 2048}
	s := newSim(t, Config{Frames: 512, Seed: 1, Specs: []TLBSpec{
		{Geometry: g}, {Geometry: g, Arity: 4}, {Geometry: g, Coalesce: 4},
	}})
	region, err := s.OS().CreateSharedRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.OS().MapShared(1, 0x300, region); err != nil {
		t.Fatal(err)
	}
	if err := s.OS().MapShared(2, 0x700, region); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OS().ForkCopy(1, 3); err != nil {
		t.Fatal(err)
	}
	mappings := []struct {
		asid core.ASID
		vpn  core.VPN
	}{{1, 0x300}, {2, 0x700}, {3, 0x300}}
	for _, m := range mappings {
		s.AccessFrom(m.asid, uint64(m.vpn)*core.PageSize, false)
	}
	// Private pages of a fourth space fill memory until the shared page
	// is evicted; the TLBs are large enough to keep its entries until then.
	for i := 0; s.OS().Resident(1, 0x300); i++ {
		if i == 3*700 {
			t.Fatal("the shared page never left memory")
		}
		s.AccessFrom(4, uint64(0x10000+i)*core.PageSize, true)
	}
	var r invariant.Report
	s.CheckInvariants(&r)
	if err := r.Err(); err != nil {
		t.Errorf("after the shared page's eviction: %v", err)
	}
	for _, m := range mappings {
		before := s.Results()
		s.AccessFrom(m.asid, uint64(m.vpn)*core.PageSize, false)
		for i, after := range s.Results() {
			if after.TLB.Misses != before[i].TLB.Misses+1 {
				t.Errorf("%s: ASID %d VPN %#x hit after its page was evicted", after.Spec.Label(), m.asid, m.vpn)
			}
		}
	}
}
