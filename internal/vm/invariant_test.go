package vm

import (
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/invariant"
)

func hasRule(r *invariant.Report, rule string) bool {
	for _, v := range r.Violations() {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

// workedSystem builds a mosaic system driven past its capacity, so the
// state under audit includes ghosts, evictions, and swapped-out pages.
func workedSystem(t *testing.T) *System {
	t.Helper()
	s, err := New(Config{Frames: 256, Mode: ModeMosaic, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for vpn := core.VPN(0); vpn < 300; vpn++ {
			s.Touch(1, vpn, vpn%7 == 0)
		}
	}
	if len(records(t, s, 1, pageSwapped)) == 0 {
		t.Fatal("workload did not push any page to swap; corruption tests need swap state")
	}
	return s
}

func TestCheckInvariantsClean(t *testing.T) {
	s := workedSystem(t)
	var r invariant.Report
	s.CheckInvariants(&r)
	if err := r.Err(); err != nil {
		t.Fatalf("clean mosaic system reported violations: %v", err)
	}

	v, err := New(Config{Frames: 128, Mode: ModeVanilla})
	if err != nil {
		t.Fatal(err)
	}
	for vpn := core.VPN(0); vpn < 200; vpn++ {
		v.Touch(1, vpn, false)
	}
	r = invariant.Report{}
	v.CheckInvariants(&r)
	if err := r.Err(); err != nil {
		t.Fatalf("clean vanilla system reported violations: %v", err)
	}
}

// TestCleanAuditAllocatesPerAuditNotPerRecord pins that a passing check
// formats nothing: a clean audit of thousands of page records allocates
// only its own bookkeeping maps, not a boxed message per record.
func TestCleanAuditAllocatesPerAuditNotPerRecord(t *testing.T) {
	for _, mode := range []Mode{ModeMosaic, ModeVanilla} {
		s, err := New(Config{Frames: 4096, Mode: mode, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			for vpn := core.VPN(0); vpn < 5120; vpn++ {
				s.Touch(1, vpn, vpn%7 == 0)
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			var r invariant.Report
			s.CheckInvariants(&r)
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
		})
		if records := s.MappedPages(1); allocs > float64(records/64) {
			t.Errorf("mode %v: a clean audit of %d records allocated %v times, want at most %d", mode, records, allocs, records/64)
		}
	}
}

// recordRef names one private page record.
type recordRef struct {
	vpn core.VPN
	c   *chunk
	i   int
}

// records returns the private records of asid in the given state, in VPN
// order.
func records(t *testing.T, s *System, asid core.ASID, state pageState) []recordRef {
	t.Helper()
	as, ok := s.spaces[asid]
	if !ok {
		t.Fatalf("ASID %d has no space", asid)
	}
	var out []recordRef
	as.each(func(vpn core.VPN, c *chunk, i int) {
		if c.state[i] == state {
			out = append(out, recordRef{vpn, c, i})
		}
	})
	return out
}

// residentPages returns the resident private records of asid in VPN order.
func residentPages(t *testing.T, s *System, asid core.ASID) []recordRef {
	t.Helper()
	pages := records(t, s, asid, pageResident)
	if len(pages) < 2 {
		t.Fatal("need at least two resident pages")
	}
	return pages
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	tests := []struct {
		name    string
		corrupt func(t *testing.T, s *System)
		rule    string
	}{
		{"relocated-pages", func(t *testing.T, s *System) {
			// Swap two resident pages' frames without moving the frames'
			// owner records: each page now claims a frame owned by the
			// other — the relocation iceberg stability forbids.
			pages := residentPages(t, s, 1)
			a, b := pages[0], pages[len(pages)-1]
			a.c.pfn[a.i], b.c.pfn[b.i] = b.c.pfn[b.i], a.c.pfn[a.i]
			a.c.cpfn[a.i], b.c.cpfn[b.i] = b.c.cpfn[b.i], a.c.cpfn[a.i]
		}, "vm.resident-owner"},
		{"stale-cpfn", func(t *testing.T, s *System) {
			// Point a page's compressed frame number at a different
			// candidate slot: it no longer decodes to the page's frame.
			pg := residentPages(t, s, 1)[0]
			pg.c.cpfn[pg.i] = (pg.c.cpfn[pg.i] + 1) % core.CPFN(s.mem.Geometry().Associativity())
		}, "vm.cpfn-decode"},
		{"dropped-mapping", func(t *testing.T, s *System) {
			// Forget a resident mapping while its frame stays allocated.
			pg := residentPages(t, s, 1)[0]
			pg.c.setAbsent(pg.i, pageNone)
		}, "vm.leaked-frame"},
		{"swapped-record-holds-cpfn", func(t *testing.T, s *System) {
			// A swapped record whose CPFN column still names a slot: a
			// window over it would read the page as present.
			swapped := records(t, s, 1, pageSwapped)
			if len(swapped) == 0 {
				t.Fatal("no swapped page to corrupt")
			}
			swapped[0].c.cpfn[swapped[0].i] = 0
		}, "vm.record-absent"},
		{"shared-record-holds-cpfn", func(t *testing.T, s *System) {
			// The same corruption in a shared region's record: a region
			// page evicted to swap whose CPFN column still names a slot.
			rc, ri := swappedSharedRecord(t, s)
			rc.cpfn[ri] = 0
		}, "vm.record-absent"},
		{"stamp-after-clock", func(t *testing.T, s *System) {
			// A resident record stamped in the future: every window would
			// read it as absent.
			pg := residentPages(t, s, 1)[0]
			pg.c.stamp[pg.i] = s.clock + 1
		}, "vm.record-stamp"},
		{"horizon-beyond-clock", func(t *testing.T, s *System) {
			s.hlru.NoteEviction(s.clock + 100)
		}, "vm.horizon-clock"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := workedSystem(t)
			tc.corrupt(t, s)
			var r invariant.Report
			s.CheckInvariants(&r)
			if r.OK() {
				t.Fatalf("corruption %q went undetected", tc.name)
			}
			if !hasRule(&r, tc.rule) {
				t.Fatalf("corruption %q reported %v, want rule %s", tc.name, r.Violations(), tc.rule)
			}
		})
	}
}
