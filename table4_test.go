package mosaic

import (
	"math"
	"testing"
)

// TestTable4RejectsOversizedPool: a pool past the VM's frame limit is an
// error, returned before any frame table is sized by it.
func TestTable4RejectsOversizedPool(t *testing.T) {
	_, err := Table4(Table4Options{Workloads: []string{"btree"}, MemoryMiB: 1 << 40,
		FootprintFracs: []float64{1.1}, MaxRefs: 1000, Runs: 1, Workers: 1})
	if err == nil {
		t.Fatal("a 2^40 MiB pool was accepted")
	}
}

// FuzzTable4Options: workload lists with unknown names, pools of at most
// 2 MiB (zero takes the 16 MiB default), non-positive and NaN footprint
// fractions, run counts and worker counts either finish with one row per
// workload and footprint or return an error, never panic.
func FuzzTable4Options(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(2), int8(1), int8(105), int8(120), uint8(1), int8(1), uint16(5000), false)
	f.Add(uint8(2), uint8(0), uint8(1), int8(2), int8(0), int8(-3), uint8(0), int8(2), uint16(100), true)
	f.Add(uint8(1), uint8(1), uint8(1), int8(-1), int8(101), int8(110), uint8(1), int8(-1), uint16(20000), false)
	f.Add(uint8(0), uint8(0), uint8(1), int8(0), int8(30), int8(127), uint8(1), int8(0), uint16(0), true)
	names := []string{"btree", "gups", "nosuch"}
	f.Fuzz(func(t *testing.T, wl1, wl2, nWl uint8, memory, frac1, frac2 int8, nFracs uint8, runs int8, maxRefs uint16, twoWorkers bool) {
		fracs := []float64{float64(frac1) / 100, float64(frac2) / 100}
		if frac1 == 0 {
			fracs[0] = math.NaN()
		}
		opt := Table4Options{
			Workloads:      []string{names[wl1%3], names[wl2%3]}[:nWl%3],
			MemoryMiB:      int(memory % 3),
			FootprintFracs: fracs[:1+nFracs%2],
			MaxRefs:        uint64(maxRefs)%20_000 + 1,
			Runs:           int(runs % 3),
			Workers:        1,
		}
		if twoWorkers {
			opt.Workers = 2
		}
		rows, err := Table4(opt)
		if err != nil {
			return
		}
		if err := opt.applyDefaults(); err != nil {
			t.Fatalf("Table4 accepted options its defaults reject: %v", err)
		}
		if want := len(opt.Workloads) * len(opt.FootprintFracs); len(rows) != want {
			t.Fatalf("%d rows, want %d", len(rows), want)
		}
	})
}
