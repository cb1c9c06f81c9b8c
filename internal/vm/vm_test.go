package vm

import (
	"math/rand"
	"testing"

	"mosaic/internal/core"
)

func newMosaic(t testing.TB, frames int) *System {
	t.Helper()
	s, err := New(Config{Frames: frames, Mode: ModeMosaic, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newVanilla(t testing.TB, frames int) *System {
	t.Helper()
	s, err := New(Config{Frames: frames, Mode: ModeVanilla})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Frames: 0}); err == nil {
		t.Error("zero frames accepted")
	}
	// Rejected before anything is sized by the frame count.
	for _, mode := range []Mode{ModeMosaic, ModeVanilla} {
		if _, err := New(Config{Frames: maxFrames + 1, Mode: mode}); err == nil {
			t.Errorf("%v: %d frames accepted", mode, maxFrames+1)
		}
	}
	if _, err := New(Config{Frames: 1024, Mode: Mode(9)}); err == nil {
		t.Error("bogus mode accepted")
	}
	// A valid geometry whose buckets outgrow the allocator's 64-frame
	// occupancy word is a config error, not an allocator panic.
	wide := core.Geometry{FrontyardSize: 57, BackyardSize: 13, Choices: 1}
	if _, err := New(Config{Frames: 1024, Mode: ModeMosaic, Geometry: wide}); err == nil {
		t.Error("70-frame buckets accepted")
	}
}

func TestDemandPagingBasics(t *testing.T) {
	for _, s := range []*System{newMosaic(t, 64*64), newVanilla(t, 64*64)} {
		t.Run(s.Mode().String(), func(t *testing.T) {
			if got := s.Touch(1, 100, false); got != MinorFault {
				t.Errorf("first touch = %v, want minor-fault", got)
			}
			if got := s.Touch(1, 100, true); got != Hit {
				t.Errorf("second touch = %v, want hit", got)
			}
			if s.Used() != 1 {
				t.Errorf("Used = %d", s.Used())
			}
			if !s.Resident(1, 100) {
				t.Error("page not resident after touch")
			}
			if s.Resident(1, 101) || s.Resident(2, 100) {
				t.Error("untouched pages report resident")
			}
			if _, ok := s.Translate(1, 100); !ok {
				t.Error("Translate failed for resident page")
			}
			if s.Metrics().CounterValue("vm.access") != 2 || s.Metrics().CounterValue("vm.fault.minor") != 1 {
				t.Errorf("access=%d minor-faults=%d", s.Metrics().CounterValue("vm.access"), s.Metrics().CounterValue("vm.fault.minor"))
			}
			if s.Device().TotalIO() != 0 {
				t.Error("demand-zero faulting performed swap I/O")
			}
		})
	}
}

func TestMosaicCPFNExposed(t *testing.T) {
	s := newMosaic(t, 64*64)
	s.Touch(1, 7, false)
	cpfn, ok := s.CPFNFor(1, 7)
	if !ok {
		t.Fatal("CPFNFor failed for resident page")
	}
	if !core.DefaultGeometry.ValidCPFN(cpfn) {
		t.Fatalf("CPFN %d invalid for geometry", cpfn)
	}
	v := newVanilla(t, 64*64)
	v.Touch(1, 7, false)
	if _, ok := v.CPFNFor(1, 7); ok {
		t.Error("vanilla system produced a CPFN")
	}
}

func TestMosaicFirstConflictNear98Percent(t *testing.T) {
	s := newMosaic(t, 1<<14)
	vpn := core.VPN(0)
	for {
		s.Touch(1, vpn, true)
		vpn++
		if _, saw := s.FirstConflictUtilization(); saw {
			break
		}
		if int(vpn) > s.NumFrames()+1000 {
			t.Fatal("no conflict even far past capacity")
		}
	}
	util, _ := s.FirstConflictUtilization()
	if util < 0.95 || util > 1.0 {
		t.Errorf("first conflict at %.4f, want ≈0.98", util)
	}
	t.Logf("first conflict at utilization %.4f (paper: ≈0.9803)", util)
}

func TestVanillaSwapsNearWatermark(t *testing.T) {
	s := newVanilla(t, 1<<14)
	vpn := core.VPN(0)
	for s.Device().PageOuts() == 0 {
		s.Touch(1, vpn, true)
		vpn++
		if int(vpn) > s.NumFrames()*2 {
			t.Fatal("vanilla system never swapped")
		}
	}
	util := s.Utilization()
	// Reclaim triggers when free < 0.8%, i.e. utilization ≈ 99.2%.
	if util < 0.985 || util > 1.0 {
		t.Errorf("first swap at utilization %.4f, want ≈0.992", util)
	}
	t.Logf("vanilla first swap at utilization %.4f (paper: ≈0.992)", util)
}

func TestMajorFaultRoundTrip(t *testing.T) {
	s := newMosaic(t, 64) // one bucket: tiny memory forces eviction fast
	// Fill past capacity so some page gets evicted.
	for v := core.VPN(0); v < 80; v++ {
		s.Touch(1, v, true)
	}
	if s.Device().PageOuts() == 0 {
		t.Fatal("no evictions in oversubscribed memory")
	}
	// Find a swapped-out page and touch it.
	var swapped core.VPN = 0xFFFF
	for v := core.VPN(0); v < 80; v++ {
		if !s.Resident(1, v) {
			swapped = v
			break
		}
	}
	if swapped == 0xFFFF {
		t.Fatal("no non-resident page found")
	}
	ins := s.Device().PageIns()
	if got := s.Touch(1, swapped, false); got != MajorFault {
		t.Fatalf("touch of swapped page = %v, want major-fault", got)
	}
	if s.Device().PageIns() != ins+1 {
		t.Error("page-in not counted")
	}
	if !s.Resident(1, swapped) {
		t.Error("page not resident after major fault")
	}
}

func TestGhostRevivalIsFree(t *testing.T) {
	s := newMosaic(t, 1<<12)
	// Fill to just below conflict, then push past it to raise the horizon.
	var vpn core.VPN
	for {
		s.Touch(1, vpn, true)
		vpn++
		if s.Metrics().CounterValue("vm.conflict") >= 3 {
			break
		}
	}
	if s.Horizon() == 0 {
		t.Fatal("horizon never rose")
	}
	if s.GhostCount() == 0 {
		t.Fatal("no ghosts after conflicts")
	}
	// Find a resident ghost: resident but older than the horizon. Touch it:
	// must be a Hit (free revival) with no new I/O.
	io := s.Device().TotalIO()
	revived := false
	for v := core.VPN(0); v < vpn; v++ {
		pfn, ok := s.Translate(1, v)
		if !ok {
			continue
		}
		_ = pfn
		if got := s.Touch(1, v, false); got != Hit {
			t.Fatalf("touch of resident page = %v", got)
		}
		revived = true
		break
	}
	if !revived {
		t.Fatal("no resident page to revive")
	}
	if s.Device().TotalIO() != io {
		t.Error("reviving a resident page performed swap I/O")
	}
}

func TestEvictionAccountingConsistent(t *testing.T) {
	for _, s := range []*System{newMosaic(t, 1<<12), newVanilla(t, 1<<12)} {
		t.Run(s.Mode().String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 30000; i++ {
				s.Touch(1, core.VPN(rng.Intn(6000)), rng.Intn(2) == 0)
			}
			if got, want := s.Metrics().CounterValue("vm.evict"), s.Device().PageOuts(); got != want {
				t.Errorf("evictions=%d, page-outs=%d", got, want)
			}
			if s.Used() > s.NumFrames() {
				t.Errorf("Used %d exceeds frames %d", s.Used(), s.NumFrames())
			}
			// Every VPN is either resident, swapped, or unmapped; resident
			// count must equal allocator's Used.
			resident := 0
			for v := core.VPN(0); v < 6000; v++ {
				if s.Resident(1, v) {
					resident++
				}
			}
			if resident != s.Used() {
				t.Errorf("resident pages %d != allocator Used %d", resident, s.Used())
			}
		})
	}
}

func TestOversubscriptionMosaicVsVanilla(t *testing.T) {
	// Sanity for the Table 4 harness: with a uniformly random working set
	// 25% larger than memory, both systems swap, and mosaic's I/O count is
	// within a sane band of vanilla's.
	const frames = 1 << 12
	const footprint = frames + frames/4
	run := func(s *System) uint64 {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200000; i++ {
			s.Touch(1, core.VPN(rng.Intn(footprint)), false)
		}
		return s.Device().TotalIO()
	}
	mosaicIO := run(newMosaic(t, frames))
	vanillaIO := run(newVanilla(t, frames))
	if mosaicIO == 0 || vanillaIO == 0 {
		t.Fatalf("expected swapping: mosaic=%d vanilla=%d", mosaicIO, vanillaIO)
	}
	ratio := float64(mosaicIO) / float64(vanillaIO)
	if ratio > 2.0 || ratio < 0.2 {
		t.Errorf("mosaic/vanilla I/O ratio %.2f wildly off (mosaic=%d vanilla=%d)",
			ratio, mosaicIO, vanillaIO)
	}
	t.Logf("mosaic=%d vanilla=%d ratio=%.3f", mosaicIO, vanillaIO, ratio)
}

func TestUnmapPrivate(t *testing.T) {
	s := newMosaic(t, 64*16)
	s.Touch(1, 5, true)
	if !s.Unmap(1, 5) {
		t.Fatal("Unmap of mapped page returned false")
	}
	if s.Unmap(1, 5) {
		t.Fatal("second Unmap returned true")
	}
	if s.Used() != 0 {
		t.Errorf("Used after unmap = %d", s.Used())
	}
	if s.Resident(1, 5) {
		t.Error("page resident after unmap")
	}
	// Unmap of a swapped page clears its record.
	tiny := newMosaic(t, 64)
	for v := core.VPN(0); v < 80; v++ {
		tiny.Touch(1, v, true)
	}
	var swapped core.VPN = 0xFFFF
	for v := core.VPN(0); v < 80; v++ {
		if !tiny.Resident(1, v) {
			swapped = v
			break
		}
	}
	if swapped == 0xFFFF {
		t.Fatal("no swapped page")
	}
	if !tiny.Unmap(1, swapped) {
		t.Fatal("Unmap of swapped page failed")
	}
	if got := tiny.Touch(1, swapped, false); got != MinorFault {
		t.Errorf("touch after unmap = %v, want fresh minor fault", got)
	}
}

func TestMappedPages(t *testing.T) {
	s := newVanilla(t, 64*16)
	for v := core.VPN(0); v < 10; v++ {
		s.Touch(3, v, false)
	}
	if got := s.MappedPages(3); got != 10 {
		t.Errorf("MappedPages = %d", got)
	}
	if got := s.MappedPages(99); got != 0 {
		t.Errorf("MappedPages of unknown ASID = %d", got)
	}
}

func TestASIDIsolation(t *testing.T) {
	s := newMosaic(t, 64*64)
	s.Touch(1, 100, true)
	s.Touch(2, 100, true)
	p1, _ := s.Translate(1, 100)
	p2, _ := s.Translate(2, 100)
	if p1 == p2 {
		t.Error("same VPN in different ASIDs shares a frame without sharing")
	}
	if s.Used() != 2 {
		t.Errorf("Used = %d", s.Used())
	}
}

// TestResolvedMatchesTranslate: after every Touch — hit, minor or major
// fault, in both modes and under enough pressure to evict — Resolved
// names the same frame and CPFN that Translate and CPFNFor look up afresh.
func TestResolvedMatchesTranslate(t *testing.T) {
	for _, s := range []*System{newMosaic(t, 64*4), newVanilla(t, 64*4)} {
		t.Run(s.Mode().String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			seen := map[AccessResult]int{}
			for i := 0; i < 20000; i++ {
				vpn := core.VPN(rng.Intn(400))
				seen[s.Touch(1, vpn, rng.Intn(2) == 0)]++
				pfn, cpfn := s.Resolved()
				wantPFN, ok := s.Translate(1, vpn)
				if !ok || pfn != wantPFN {
					t.Fatalf("touch %d of VPN %#x: Resolved PFN %d, Translate %d (ok=%v)", i, vpn, pfn, wantPFN, ok)
				}
				wantCPFN, ok := s.CPFNFor(1, vpn)
				if !ok {
					wantCPFN = core.CPFNInvalid
				}
				if cpfn != wantCPFN {
					t.Fatalf("touch %d of VPN %#x: Resolved CPFN %d, CPFNFor %d", i, vpn, cpfn, wantCPFN)
				}
			}
			if seen[Hit] == 0 || seen[MinorFault] == 0 || seen[MajorFault] == 0 {
				t.Fatalf("results %v: want hits, minor and major faults", seen)
			}
		})
	}
}
