package memsim

import (
	"strings"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/invariant"
	"mosaic/internal/tlb"
)

func checkedSimulator(t *testing.T) *Simulator {
	t.Helper()
	s, err := New(Config{
		Frames: 1 << 12,
		Specs: []TLBSpec{
			{Geometry: tlb.Geometry{Entries: 64, Ways: 4}},
			{Geometry: tlb.Geometry{Entries: 64, Ways: 4}, Arity: 4},
		},
		Seed:       5,
		CheckEvery: 64, // exercise the periodic debug checks during the run
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCheckInvariantsDuringRun drives a simulation with CheckEvery enabled
// (every violation would panic mid-run) and confirms the final state audits
// clean, including the TLB↔page-table coherence sweep.
func TestCheckInvariantsDuringRun(t *testing.T) {
	s := checkedSimulator(t)
	for rep := 0; rep < 4; rep++ {
		for p := uint64(0); p < 500; p++ {
			s.Access(p*core.PageSize+16, p%5 == 0)
		}
	}
	var r invariant.Report
	s.CheckInvariants(&r)
	if err := r.Err(); err != nil {
		t.Fatalf("post-run state reported violations: %v", err)
	}
}

// TestCheckInvariantsDetectsStaleTLB plants entries the page records
// disagree with in both TLB flavours and asserts the coherence audit
// reports them.
func TestCheckInvariantsDetectsStaleTLB(t *testing.T) {
	s := checkedSimulator(t)
	for p := uint64(0); p < 200; p++ {
		s.Access(p*core.PageSize, false)
	}

	t.Run("vanilla-wrong-pfn", func(t *testing.T) {
		vpn := core.VPN(3)
		want, ok := s.os.Translate(s.cfg.ASID, vpn)
		if !ok {
			t.Fatal("VPN 3 should be mapped")
		}
		s.units[0].(*vanillaUnit).tlb.Insert(taggedVPN(s.cfg.ASID, vpn), want.Add(1))
		var r invariant.Report
		s.CheckInvariants(&r)
		if !hasCoherenceViolation(&r, "Vanilla") {
			t.Fatalf("stale vanilla entry not reported: %v", r.Violations())
		}
		// Repair by reinserting the truth; the state must audit clean again.
		s.units[0].(*vanillaUnit).tlb.Insert(taggedVPN(s.cfg.ASID, vpn), want)
		r = invariant.Report{}
		s.CheckInvariants(&r)
		if err := r.Err(); err != nil {
			t.Fatalf("repaired state still dirty: %v", err)
		}
	})

	t.Run("mosaic-unmapped-subpage", func(t *testing.T) {
		m := s.units[1].(*mosaicUnit).tlb
		// A ToC claiming a valid sub-entry for a VPN the OS does not map.
		vpn := core.VPN(1 << 20)
		toc := m.InvalidToC()
		toc[0] = 0
		m.Insert(taggedVPN(s.cfg.ASID, vpn), toc)
		var r invariant.Report
		s.CheckInvariants(&r)
		if !hasCoherenceViolation(&r, "Mosaic-4") {
			t.Fatalf("stale mosaic sub-entry not reported: %v", r.Violations())
		}
	})
}

func hasCoherenceViolation(r *invariant.Report, label string) bool {
	for _, v := range r.Violations() {
		if v.Rule == "memsim.tlb-coherence" && strings.HasPrefix(v.Detail, label) {
			return true
		}
	}
	return false
}

// TestCheckInvariantsReportDeterministic corrupts two entries in each of an
// index-probed (fully-associative) vanilla TLB and a scanned mosaic TLB and
// checks that the violation report reads identically on every run: TLB
// contents are audited in slot order, not index order.
func TestCheckInvariantsReportDeterministic(t *testing.T) {
	var first string
	for run := 0; run < 5; run++ {
		s, err := New(Config{
			Frames: 1 << 12,
			Specs: []TLBSpec{
				{Geometry: tlb.Geometry{Entries: 64, Ways: 64}},
				{Geometry: tlb.Geometry{Entries: 64, Ways: 4}, Arity: 4},
			},
			Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		for p := uint64(0); p < 40; p++ {
			s.Access(p*core.PageSize, false)
		}
		for _, vpn := range []core.VPN{3, 17} {
			pfn, _ := s.os.Translate(s.cfg.ASID, vpn)
			s.units[0].(*vanillaUnit).tlb.Insert(taggedVPN(s.cfg.ASID, vpn), pfn.Add(1))
		}
		for _, vpn := range []core.VPN{1 << 20, 1<<20 + 64} {
			toc := s.units[1].(*mosaicUnit).tlb.InvalidToC()
			toc[0] = 0
			s.units[1].(*mosaicUnit).tlb.Insert(taggedVPN(s.cfg.ASID, vpn), toc)
		}
		var r invariant.Report
		s.CheckInvariants(&r)
		err = r.Err()
		if err == nil {
			t.Fatal("corrupted TLBs audited clean")
		}
		if run == 0 {
			first = err.Error()
		} else if got := err.Error(); got != first {
			t.Fatalf("run %d report differs:\n%s\nfirst run:\n%s", run, got, first)
		}
	}
}
