package vm

import (
	"math/rand"
	"reflect"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/invariant"
)

// touchRun is one stretch of consecutive accesses to one page: access k
// is a store when writes[k] is set.
type touchRun struct {
	asid   core.ASID
	vpn    core.VPN
	writes []bool
}

// runScript is a stream of runs over ASIDs 1 to 3.
type runScript []touchRun

// newRunScript draws a stream of runs: most are a few accesses long, some
// reach hundreds, so runs cross scan-daemon ticks, and stores fall at any
// position in a run. VPNs cross the 512-record chunk edge.
func newRunScript(seed int64, runs int) runScript {
	rng := rand.New(rand.NewSource(seed))
	out := make(runScript, runs)
	for i := range out {
		asid := core.ASID(1 + rng.Intn(3))
		vpn := core.VPN(400 + rng.Intn(240))
		var n int
		switch k := rng.Intn(20); {
		case k < 6:
			n = 1
		case k < 14:
			n = 2 + rng.Intn(3)
		case k < 19:
			n = 5 + rng.Intn(40)
		default:
			n = 100 + rng.Intn(300)
		}
		writes := make([]bool, n)
		for k := range writes {
			writes[k] = rng.Intn(9) == 0
		}
		out[i] = touchRun{asid: asid, vpn: vpn, writes: writes}
	}
	return out
}

// play runs the script on s, one Touch per access or, with batched set,
// one TouchN per run, and returns each run's first-access result.
func (sc runScript) play(t *testing.T, s *System, batched bool) []AccessResult {
	t.Helper()
	var results []AccessResult
	for _, r := range sc {
		if batched {
			write := false
			for _, w := range r.writes {
				write = write || w
			}
			results = append(results, s.TouchN(r.asid, r.vpn, uint64(len(r.writes)), write))
			continue
		}
		results = append(results, s.Touch(r.asid, r.vpn, r.writes[0]))
		for k, w := range r.writes[1:] {
			if got := s.Touch(r.asid, r.vpn, w); got != Hit {
				t.Fatalf("access %d of a run on (%d, %#x) = %v, want a hit", k+1, r.asid, r.vpn, got)
			}
		}
	}
	return results
}

// TestTouchNMatchesTouch feeds one stream of runs to two Systems, one
// Touch per access and one TouchN per run, and requires identical
// results and identical state: the clock, every counter, the swap
// device, every frame's owner, timestamp, dirty bit and occupancy, the
// two-list LRU's lists in order and every page's bit, every page's translation, and a clean invariant
// audit. Memory is small enough to evict throughout, and the scan-mode
// interval is short enough that long runs cross several daemon ticks.
func TestTouchNMatchesTouch(t *testing.T) {
	cases := map[string]Config{
		"vanilla": {Frames: 192, Mode: ModeVanilla},
		"mosaic":  {Frames: 256, Mode: ModeMosaic, Seed: 3},
		"scan":    {Frames: 256, Mode: ModeMosaic, Seed: 3, ScanInterval: 61},
	}
	script := newRunScript(11, 6000)
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			each, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runs, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := script.play(t, each, false)
			got := script.play(t, runs, true)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("TouchN's first-access results differ from Touch's")
			}
			if each.Device().PageOuts() == 0 {
				t.Fatal("the stream evicted nothing")
			}
			if cfg.ScanInterval > 0 && each.Metrics().CounterValue("vm.scan.daemon") == 0 {
				t.Fatal("the scan daemon never ran")
			}
			assertSameState(t, runs, each)
		})
	}
}

// assertSameState requires got and want to be in the same observable
// state, page by page and frame by frame.
func assertSameState(t *testing.T, got, want *System) {
	t.Helper()
	if got.Clock() != want.Clock() {
		t.Fatalf("clock %d, want %d", got.Clock(), want.Clock())
	}
	if g, w := got.Metrics().Snapshot(), want.Metrics().Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("metrics %v, want %v", g.Counters, w.Counters)
	}
	if got.Device().PageOuts() != want.Device().PageOuts() || got.Device().PageIns() != want.Device().PageIns() {
		t.Fatalf("swap I/O %d out %d in, want %d out %d in", got.Device().PageOuts(), got.Device().PageIns(),
			want.Device().PageOuts(), want.Device().PageIns())
	}
	for pfn := core.PFN(0); int(pfn) < want.NumFrames(); pfn++ {
		gown, gl, gd, gu := got.frameInfo(pfn)
		wown, wl, wd, wu := want.frameInfo(pfn)
		if gown != wown || gl != wl || gd != wd || gu != wu {
			t.Fatalf("frame %d: owner %+v, last access %d, dirty %v, used %v; want %+v, %d, %v, %v",
				pfn, gown, gl, gd, gu, wown, wl, wd, wu)
		}
	}
	if !reflect.DeepEqual(got.policy, want.policy) {
		t.Fatalf("two-list LRU differs: active %d inactive %d, want %d and %d", got.policy.ActiveLen(), got.policy.InactiveLen(),
			want.policy.ActiveLen(), want.policy.InactiveLen())
	}
	for asid := core.ASID(1); asid <= 3; asid++ {
		for vpn := core.VPN(0); vpn < 1024; vpn++ {
			gp, gok := got.Translate(asid, vpn)
			wp, wok := want.Translate(asid, vpn)
			gc, gcok := got.CPFNFor(asid, vpn)
			wc, wcok := want.CPFNFor(asid, vpn)
			if gp != wp || gok != wok || gc != wc || gcok != wcok {
				t.Fatalf("(%d, %#x): frame %d %v CPFN %d %v; want %d %v, %d %v", asid, vpn, gp, gok, gc, gcok, wp, wok, wc, wcok)
			}
		}
	}
	var r invariant.Report
	got.CheckInvariants(&r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}
