package mosaic

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mosaic/internal/stats"
	"mosaic/internal/trace"
)

// TestTable3NamesExhaustedBudget: a run that spends its whole MaxRefs
// budget before the first conflict blames the budget, not the footprint.
// graph500 at 1.05× a 1 MiB pool conflicts only after about 2M references.
func TestTable3NamesExhaustedBudget(t *testing.T) {
	_, err := Table3(Table3Options{Workloads: []string{"graph500"}, MemoryMiB: 1,
		FootprintFracs: []float64{1.05}, MaxRefs: 20_000, Runs: 1, Workers: 1})
	if err == nil {
		t.Fatal("no conflict within 20k references, yet no error")
	}
	if msg := err.Error(); !strings.Contains(msg, "reference budget (MaxRefs 20000)") || strings.Contains(msg, "footprint") {
		t.Errorf("error %q does not blame the MaxRefs budget alone", msg)
	}
}

// runStream is a synthetic reference stream over pages [0, pages): mostly
// short runs of references to one page, and in its second half, after
// memory has filled, some runs longer than two 4096-reference sampling
// periods. Each reference is a store with probability 1/9, so stores fall
// at any position of a run.
func runStream(pages, runs int, seed int64) trace.Batch {
	rng := rand.New(rand.NewSource(seed))
	var b trace.Batch
	for i := 0; i < runs; i++ {
		n := 1 + rng.Intn(8)
		if i > runs/2 && rng.Intn(100) == 0 {
			n = 4000 + rng.Intn(9000)
		}
		va := uint64(rng.Intn(pages)) * PageSize
		for k := 0; k < n; k++ {
			b = append(b, trace.MakeRef(va+uint64(k%64)*8, rng.Intn(9) == 0))
		}
	}
	return b
}

// TestOSSinksMatchPerReference feeds one stream with long runs to the
// OS-only sinks, which touch once per run, and to their per-reference
// definitions, one TouchVA per reference with the check after each:
// table3Sink must take the same steady-state samples, onsetSink must see
// the same onset, and vmSink must leave the System in the same state,
// every frame's dirty bit and timestamp included.
func TestOSSinksMatchPerReference(t *testing.T) {
	const frames = 1024
	stream := runStream(frames*13/10, 8000, 5)
	newSys := func(mode Mode) *System {
		sys, err := NewSystem(SystemConfig{Frames: frames, Mode: mode, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// The whole stream goes in one batch: DefaultBatchSize batches would
	// cut every run at each 4096th reference, the sampling clock.
	feed := func(sink BatchSink) { sink.ProcessBatch(stream) }

	t.Run("table3", func(t *testing.T) {
		var got, want stats.Running
		feed(&table3Sink{sys: newSys(ModeMosaic), steady: &got})
		sys := newSys(ModeMosaic)
		for _, r := range stream {
			sys.TouchVA(1, r.VA(), r.Write())
			if sys.Clock()%4096 == 0 {
				if _, saw := sys.FirstConflictUtilization(); saw {
					want.Observe(sys.Utilization())
				}
			}
		}
		if want.N() < 2 {
			t.Fatalf("%d steady-state samples: the check is vacuous", want.N())
		}
		if got.N() != want.N() || got.Mean() != want.Mean() || got.Stddev() != want.Stddev() {
			t.Errorf("steady state: %d samples, mean %v, sd %v; per reference %d, %v, %v",
				got.N(), got.Mean(), got.Stddev(), want.N(), want.Mean(), want.Stddev())
		}
	})

	t.Run("onset", func(t *testing.T) {
		got, want := -1.0, -1.0
		feed(onsetSink{sys: newSys(ModeVanilla), onset: &got})
		sys := newSys(ModeVanilla)
		for _, r := range stream {
			sys.TouchVA(1, r.VA(), r.Write())
			if want < 0 && sys.Device().PageOuts() > 0 {
				want = sys.Utilization()
			}
		}
		if want < 0 || got != want {
			t.Errorf("onset %v, per reference %v", got, want)
		}
	})

	t.Run("vm", func(t *testing.T) {
		for _, mode := range []Mode{ModeVanilla, ModeMosaic} {
			got, want := newSys(mode), newSys(mode)
			feed(vmSink{got, 1})
			for _, r := range stream {
				want.TouchVA(1, r.VA(), r.Write())
			}
			if want.Device().PageOuts() == 0 {
				t.Fatalf("%v: the stream evicted nothing", mode)
			}
			if g, w := got.Metrics().Snapshot(), want.Metrics().Snapshot(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%v: counters %v, per reference %v", mode, g.Counters, w.Counters)
			}
			for vpn := VPN(0); vpn < frames*2; vpn++ {
				gp, gok := got.Translate(1, vpn)
				wp, wok := want.Translate(1, vpn)
				if gp != wp || gok != wok {
					t.Fatalf("%v: page %#x at frame %d (%v), per reference %d (%v)", mode, vpn, gp, gok, wp, wok)
				}
			}
			if mode != ModeMosaic {
				continue
			}
			for pfn := PFN(0); pfn < frames; pfn++ {
				_, gl, gd, _ := got.Allocator().FrameInfo(pfn)
				_, wl, wd, _ := want.Allocator().FrameInfo(pfn)
				if gl != wl || gd != wd {
					t.Fatalf("frame %d: last access %d, dirty %v; per reference %d, %v", pfn, gl, gd, wl, wd)
				}
			}
		}
	})
}

// FuzzTable3Options: workload lists with unknown names, pools of at most
// 2 MiB (zero takes the 16 MiB default, negative is an error),
// non-positive and NaN footprint fractions, run counts and worker counts
// either finish with one row per workload and footprint or return an
// error, never panic. Every run stops within 20k references.
func FuzzTable3Options(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(2), int8(1), int8(105), int8(120), uint8(1), int8(1), uint16(5000), false)
	f.Add(uint8(2), uint8(0), uint8(1), int8(2), int8(0), int8(-3), uint8(0), int8(2), uint16(100), true)
	f.Add(uint8(1), uint8(1), uint8(1), int8(-1), int8(101), int8(110), uint8(1), int8(-1), uint16(20000), false)
	f.Add(uint8(4), uint8(0), uint8(1), int8(0), int8(30), int8(127), uint8(1), int8(0), uint16(0), true)
	f.Add(uint8(3), uint8(3), uint8(2), int8(1), int8(120), int8(110), uint8(1), int8(1), uint16(19999), true)
	names := []string{"graph500", "xsbench", "btree", "gups", "nosuch"}
	f.Fuzz(func(t *testing.T, wl1, wl2, nWl uint8, memory, frac1, frac2 int8, nFracs uint8, runs int8, maxRefs uint16, twoWorkers bool) {
		fracs := []float64{float64(frac1) / 100, float64(frac2) / 100}
		if frac1 == 0 {
			fracs[0] = math.NaN()
		}
		opt := Table3Options{
			Workloads:      []string{names[wl1%5], names[wl2%5]}[:nWl%3],
			MemoryMiB:      int(memory % 3),
			FootprintFracs: fracs[:1+nFracs%2],
			MaxRefs:        uint64(maxRefs)%20_000 + 1,
			Runs:           int(runs % 3),
			Workers:        1,
		}
		if twoWorkers {
			opt.Workers = 2
		}
		rows, err := Table3(opt)
		if err != nil {
			return
		}
		if err := opt.applyDefaults(); err != nil {
			t.Fatalf("Table3 accepted options its defaults reject: %v", err)
		}
		if want := len(opt.Workloads) * len(opt.FootprintFracs); len(rows) != want {
			t.Fatalf("%d rows, want %d", len(rows), want)
		}
		for _, r := range rows {
			if !(r.FirstConflict > 0 && r.FirstConflict <= 1 && r.Steady > 0 && r.Steady <= 1) {
				t.Fatalf("row %+v: utilizations outside (0, 1]", r)
			}
		}
	})
}

// FuzzIcebergDeltaOptions: slot counts up to 4096 (zero takes the
// default, negative and sub-bucket counts are errors), trial counts,
// geometries with zero, negative and oversized parameters, and worker
// counts either finish with a δ in (0, 1] per trial or return an error,
// never panic.
func FuzzIcebergDeltaOptions(f *testing.F) {
	f.Add(int16(4096), int8(2), int8(0), int8(0), int8(0), false)
	f.Add(int16(1024), int8(1), int8(8), int8(2), int8(3), true)
	f.Add(int16(-64), int8(0), int8(56), int8(8), int8(6), false)
	f.Add(int16(63), int8(-1), int8(127), int8(127), int8(127), true)
	f.Add(int16(300), int8(3), int8(1), int8(1), int8(1), false)
	f.Fuzz(func(t *testing.T, slots int16, trials, front, back, choices int8, twoWorkers bool) {
		opt := IcebergDeltaOptions{
			Slots:    int(slots) % 4097,
			Trials:   int(trials % 4),
			Geometry: Geometry{FrontyardSize: int(front), BackyardSize: int(back), Choices: int(choices)},
			Seed:     uint64(slots),
			Workers:  1,
		}
		if opt.Slots == 0 {
			// The default table is 1<<15 slots; keep the fuzzer fast.
			opt.Slots = 4096
		}
		if twoWorkers {
			opt.Workers = 2
		}
		res, err := IcebergDelta(opt)
		if err != nil {
			return
		}
		want := opt.Trials
		if want == 0 {
			want = 10
		}
		if res.Trials != want {
			t.Fatalf("%d trials reported, want %d", res.Trials, want)
		}
		if !(res.Min > 0 && res.Min <= res.Mean && res.Mean <= res.Max && res.Max <= 1) {
			t.Fatalf("δ result %+v: want 0 < min ≤ mean ≤ max ≤ 1", res)
		}
	})
}
