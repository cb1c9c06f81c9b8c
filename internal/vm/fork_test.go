package vm

import (
	"testing"

	"mosaic/internal/core"
)

func TestForkCopyBasics(t *testing.T) {
	s := newMosaic(t, 64*64)
	for v := core.VPN(0); v < 20; v++ {
		s.Touch(1, v, true)
	}
	st, err := s.ForkCopy(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.CopiedPages != 20 || st.ClonedSwapSlots != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if s.Used() != 40 {
		t.Fatalf("Used = %d, want 40 (copies are real frames)", s.Used())
	}
	// Child pages live in child-constrained frames, distinct from the
	// parent's.
	for v := core.VPN(0); v < 20; v++ {
		pp, _ := s.Translate(1, v)
		cp, ok := s.Translate(2, v)
		if !ok {
			t.Fatalf("child page %d not resident", v)
		}
		if pp == cp {
			t.Fatalf("page %d shares a frame across the fork without sharing semantics", v)
		}
	}
	// Post-fork writes are independent (no COW aliasing to go wrong —
	// frames are already distinct; just verify the mappings survive).
	s.Touch(2, 5, true)
	s.Touch(1, 5, true)
	if !s.Resident(1, 5) || !s.Resident(2, 5) {
		t.Fatal("mappings disturbed by post-fork writes")
	}
}

func TestForkCopySwappedPages(t *testing.T) {
	s := newMosaic(t, 64) // tiny: force swap
	for v := core.VPN(0); v < 90; v++ {
		s.Touch(1, v, true)
	}
	outsBefore := s.Device().PageOuts()
	st, err := s.ForkCopy(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.ClonedSwapSlots == 0 {
		t.Fatal("no swap slots cloned despite swapped parent pages")
	}
	// Cloning a slot is not I/O — but the resident-page copies may well
	// have evicted pages (real I/O). Just assert clones exceed the delta
	// in outs by construction: every cloned slot produced zero page-ins.
	if s.Device().PageIns() != 0 {
		t.Fatal("fork performed page-ins")
	}
	_ = outsBefore
	// A cloned swapped page major-faults in the child independently.
	var swapped core.VPN = 0xFFFF
	for v := core.VPN(0); v < 90; v++ {
		if !s.Resident(2, v) {
			swapped = v
			break
		}
	}
	if swapped == 0xFFFF {
		t.Skip("all child pages resident under this placement")
	}
	if got := s.Touch(2, swapped, false); got != MajorFault {
		t.Fatalf("child touch of cloned slot = %v", got)
	}
}

func TestForkCopySharedMappings(t *testing.T) {
	s := newMosaic(t, 64*16)
	r, _ := s.CreateSharedRegion(4)
	if err := s.MapShared(1, 0x100, r); err != nil {
		t.Fatal(err)
	}
	s.Touch(1, 0x101, true)
	st, err := s.ForkCopy(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.SharedMappings != 4 {
		t.Fatalf("shared mappings inherited = %d, want 4", st.SharedMappings)
	}
	// The child's view aliases the same frames (reference semantics).
	p1, _ := s.Translate(1, 0x101)
	p2, ok := s.Translate(2, 0x101)
	if !ok || p1 != p2 {
		t.Fatalf("inherited shared mapping differs: %d vs %d", p1, p2)
	}
	// Region teardown now requires both unmappings.
	if err := s.UnmapShared(1, 0x100, r); err != nil {
		t.Fatal(err)
	}
	if !s.Resident(2, 0x101) {
		t.Fatal("region reclaimed while child still maps it")
	}
	if err := s.UnmapShared(2, 0x100, r); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 0 {
		t.Fatalf("Used = %d after final unmap", s.Used())
	}
}

// TestForkCopyRegionMappedTwice: a child inherits each of the parent's
// mappings of a region as its own reference, so the parent's second
// mapping survives the child unmapping both of its copies.
func TestForkCopyRegionMappedTwice(t *testing.T) {
	s := newMosaic(t, 64*16)
	r, _ := s.CreateSharedRegion(2)
	for _, base := range []core.VPN{0x10, 0x20} {
		if err := s.MapShared(1, base, r); err != nil {
			t.Fatal(err)
		}
	}
	s.Touch(1, 0x10, true)
	if _, err := s.ForkCopy(1, 2); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		asid core.ASID
		base core.VPN
	}{{2, 0x10}, {2, 0x20}, {1, 0x10}} {
		if err := s.UnmapShared(step.asid, step.base, r); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Resident(1, 0x20) {
		t.Fatal("region freed while the parent still maps it")
	}
	if err := s.UnmapShared(1, 0x20, r); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 0 {
		t.Fatalf("Used = %d after the last mapping went", s.Used())
	}
}

func TestForkCopyValidation(t *testing.T) {
	s := newMosaic(t, 64*16)
	s.Touch(1, 1, true)
	if _, err := s.ForkCopy(1, 1); err == nil {
		t.Error("fork onto self accepted")
	}
	if _, err := s.ForkCopy(9, 2); err == nil {
		t.Error("fork from empty parent accepted")
	}
	s.Touch(2, 1, true)
	if _, err := s.ForkCopy(1, 2); err == nil {
		t.Error("fork onto non-empty child accepted")
	}
}

func TestForkCopyWorksInVanillaMode(t *testing.T) {
	s := newVanilla(t, 64*16)
	for v := core.VPN(0); v < 10; v++ {
		s.Touch(1, v, true)
	}
	st, err := s.ForkCopy(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.CopiedPages != 10 {
		t.Fatalf("copied = %d", st.CopiedPages)
	}
	if s.Used() != 20 {
		t.Fatalf("Used = %d", s.Used())
	}
}
