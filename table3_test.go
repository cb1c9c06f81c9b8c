package mosaic

import (
	"math"
	"testing"
)

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
