package vm

import (
	"slices"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/invariant"
)

func TestSharedRegionCrossASID(t *testing.T) {
	for _, mk := range []func(testing.TB, int) *System{newMosaic, newVanilla} {
		s := mk(t, 64*64)
		t.Run(s.Mode().String(), func(t *testing.T) {
			r, err := s.CreateSharedRegion(8)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.MapShared(1, 0x1000, r); err != nil {
				t.Fatal(err)
			}
			if err := s.MapShared(2, 0x2000, r); err != nil {
				t.Fatal(err)
			}
			// First touch from ASID 1 faults the page in.
			if got := s.Touch(1, 0x1000, true); got != MinorFault {
				t.Fatalf("first shared touch = %v", got)
			}
			// ASID 2 sees the same frame — and hits, since the page is
			// already resident.
			if got := s.Touch(2, 0x2000, false); got != Hit {
				t.Fatalf("second-mapping touch = %v, want hit", got)
			}
			p1, ok1 := s.Translate(1, 0x1000)
			p2, ok2 := s.Translate(2, 0x2000)
			if !ok1 || !ok2 || p1 != p2 {
				t.Fatalf("shared mappings disagree: %d/%v vs %d/%v", p1, ok1, p2, ok2)
			}
			if s.Used() != 1 {
				t.Errorf("one shared page uses %d frames", s.Used())
			}
		})
	}
}

func TestSharedRegionSameCPFNForAllMappings(t *testing.T) {
	// §2.5: hashing (location ID, index) means both mappings see the same
	// ToC entry — the whole point of the extension.
	s := newMosaic(t, 64*64)
	r, _ := s.CreateSharedRegion(4)
	if err := s.MapShared(1, 0x100, r); err != nil {
		t.Fatal(err)
	}
	if err := s.MapShared(2, 0x900, r); err != nil {
		t.Fatal(err)
	}
	s.Touch(1, 0x102, true)
	c1, ok1 := s.CPFNFor(1, 0x102)
	c2, ok2 := s.CPFNFor(2, 0x902)
	if !ok1 || !ok2 || c1 != c2 {
		t.Fatalf("CPFNs differ across mappings: %d/%v vs %d/%v", c1, ok1, c2, ok2)
	}
}

func TestSharedRegionDuplicateMappingSameSpace(t *testing.T) {
	// Duplicate mmaps of the same region within one address space (the
	// other §2.5 use case).
	s := newMosaic(t, 64*64)
	r, _ := s.CreateSharedRegion(4)
	if err := s.MapShared(1, 0x100, r); err != nil {
		t.Fatal(err)
	}
	if err := s.MapShared(1, 0x500, r); err != nil {
		t.Fatal(err)
	}
	s.Touch(1, 0x101, true)
	p1, _ := s.Translate(1, 0x101)
	p2, ok := s.Translate(1, 0x501)
	if !ok || p1 != p2 {
		t.Fatalf("duplicate mapping disagrees: %d vs %d (ok=%v)", p1, p2, ok)
	}
}

func TestSharedMappingConflictsRejected(t *testing.T) {
	s := newMosaic(t, 64*64)
	r, _ := s.CreateSharedRegion(4)
	s.Touch(1, 0x102, false) // private page in the way
	if err := s.MapShared(1, 0x100, r); err == nil {
		t.Error("mapping over a private page succeeded")
	}
	if err := s.MapShared(1, 0x200, r); err != nil {
		t.Fatal(err)
	}
	if err := s.MapShared(1, 0x202, r); err == nil {
		t.Error("overlapping shared mapping succeeded")
	}
}

func TestSharedRegionValidation(t *testing.T) {
	s := newMosaic(t, 64*64)
	if _, err := s.CreateSharedRegion(0); err == nil {
		t.Error("zero-size region accepted")
	}
	if err := s.MapShared(1, 0, nil); err == nil {
		t.Error("nil region accepted")
	}
	other := newMosaic(t, 64*64)
	r, _ := other.CreateSharedRegion(2)
	if err := s.MapShared(1, 0, r); err == nil {
		t.Error("foreign region accepted")
	}
}

func TestSharedRegionUnmapAndTeardown(t *testing.T) {
	s := newMosaic(t, 64*64)
	r, _ := s.CreateSharedRegion(4)
	if err := s.MapShared(1, 0x100, r); err != nil {
		t.Fatal(err)
	}
	if err := s.MapShared(2, 0x200, r); err != nil {
		t.Fatal(err)
	}
	for i := core.VPN(0); i < 4; i++ {
		s.Touch(1, 0x100+i, true)
	}
	if s.Used() != 4 {
		t.Fatalf("Used = %d", s.Used())
	}
	if err := s.UnmapShared(1, 0x100, r); err != nil {
		t.Fatal(err)
	}
	// Region still alive via ASID 2.
	if s.Used() != 4 {
		t.Errorf("Used after first unmap = %d", s.Used())
	}
	if got := s.Touch(2, 0x201, false); got != Hit {
		t.Errorf("surviving mapping touch = %v", got)
	}
	if err := s.UnmapShared(2, 0x200, r); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 0 {
		t.Errorf("Used after final unmap = %d (region pages leaked)", s.Used())
	}
}

func TestSharedPageSwapRoundTrip(t *testing.T) {
	// A shared page evicted under pressure must major-fault back in for
	// whichever mapping touches it first, then hit for the other.
	s := newMosaic(t, 64)
	r, _ := s.CreateSharedRegion(4)
	if err := s.MapShared(1, 0x100, r); err != nil {
		t.Fatal(err)
	}
	if err := s.MapShared(2, 0x200, r); err != nil {
		t.Fatal(err)
	}
	for i := core.VPN(0); i < 4; i++ {
		s.Touch(1, 0x100+i, true)
	}
	// Oversubscribe with private pages to force the shared pages out.
	for v := core.VPN(0); v < 100; v++ {
		s.Touch(3, v, true)
	}
	var victim core.VPN = 0xFFFF
	for i := core.VPN(0); i < 4; i++ {
		if !s.Resident(1, 0x100+i) {
			victim = i
			break
		}
	}
	if victim == 0xFFFF {
		t.Skip("no shared page was evicted under this placement")
	}
	if got := s.Touch(2, 0x200+victim, false); got != MajorFault {
		t.Fatalf("touch of swapped shared page = %v", got)
	}
	if got := s.Touch(1, 0x100+victim, false); got != Hit {
		t.Fatalf("other mapping after page-in = %v", got)
	}
}

func TestSingleMappingUnmapViaUnmap(t *testing.T) {
	// Plain Unmap on a shared VPN drops that page's mapping; the region
	// lives on while another page maps it, and goes with the last one.
	s := newMosaic(t, 64*16)
	r, _ := s.CreateSharedRegion(2)
	if err := s.MapShared(1, 0x10, r); err != nil {
		t.Fatal(err)
	}
	s.Touch(1, 0x10, true)
	s.Touch(1, 0x11, true)
	if !s.Unmap(1, 0x10) {
		t.Fatal("Unmap of shared VPN failed")
	}
	if !s.Resident(1, 0x11) {
		t.Fatal("unmapping one page of a shared mapping freed the rest")
	}
	checkClean(t, s)
	if !s.Unmap(1, 0x11) {
		t.Fatal("Unmap of the last shared VPN failed")
	}
	if s.Used() != 0 {
		t.Fatalf("Used = %d after the last page was unmapped", s.Used())
	}
	checkClean(t, s)
}

func checkClean(t *testing.T, s *System) {
	t.Helper()
	var r invariant.Report
	s.CheckInvariants(&r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedEvictionReportsEveryMapping: the eviction hook names a shared
// page under every (ASID, VPN) that maps it when it leaves memory, in the
// order the mappings were made — a fork child's inherited mappings
// included, and neither a page unmapped on its own nor a whole mapping
// removed with UnmapShared.
func TestSharedEvictionReportsEveryMapping(t *testing.T) {
	s := newMosaic(t, 64)
	r, err := s.CreateSharedRegion(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []modelKey{{1, 0x100}, {2, 0x200}, {1, 0x900}} {
		if err := s.MapShared(m.asid, m.vpn, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ForkCopy(1, 3); err != nil {
		t.Fatal(err)
	}
	if !s.Unmap(1, 0x900) {
		t.Fatal("Unmap of a shared VPN failed")
	}
	if err := s.UnmapShared(2, 0x200, r); err != nil {
		t.Fatal(err)
	}
	if err := s.MapShared(2, 0x400, r); err != nil {
		t.Fatal(err)
	}
	var got []modelKey
	s.OnEvict(func(asid core.ASID, vpn core.VPN) {
		if asid != 4 {
			got = append(got, modelKey{asid, vpn})
		}
	})
	s.Touch(1, 0x100, true)
	for v := core.VPN(0); s.Resident(1, 0x100); v++ {
		if v == 1000 {
			t.Fatal("the shared page never left memory")
		}
		s.Touch(4, 0x10000+v, true)
	}
	want := []modelKey{{1, 0x100}, {3, 0x100}, {3, 0x900}, {2, 0x400}}
	if !slices.Equal(got, want) {
		t.Fatalf("eviction hook named %v, want %v", got, want)
	}
	checkClean(t, s)
}
