package mosaic

import (
	"math"
	"testing"
)

// FuzzAblateSwapOptions drives AblateTimestamps and AblateEviction, whose
// Systems take the run path (one TouchN per run of references to one
// page), scan mode included. Workload names (empty and unknown ones
// too), pools of at most 2 MiB (zero takes the default, negative is an
// error), non-positive and NaN footprint fractions, scan intervals from 1
// up, reference budgets and worker counts either finish with one row per
// interval or footprint or return an error, never panic. Every run stops
// within 20k references.
func FuzzAblateSwapOptions(f *testing.F) {
	f.Add(uint8(0), int8(1), int8(105), int8(120), uint8(1), uint16(0), uint16(97), uint8(2), uint16(5000), false)
	f.Add(uint8(2), int8(2), int8(0), int8(-3), uint8(0), uint16(1), uint16(0), uint8(1), uint16(100), true)
	f.Add(uint8(1), int8(-1), int8(101), int8(110), uint8(1), uint16(4096), uint16(3), uint8(2), uint16(19999), false)
	f.Add(uint8(5), int8(0), int8(30), int8(127), uint8(1), uint16(7), uint16(7), uint8(2), uint16(0), true)
	f.Add(uint8(6), int8(1), int8(1), int8(1), uint8(1), uint16(65535), uint16(2), uint8(0), uint16(300), false)
	names := []string{"graph500", "xsbench", "btree", "gups", "kvstore", "", "nosuch"}
	f.Fuzz(func(t *testing.T, wl uint8, memory, frac1, frac2 int8, nFracs uint8, iv1, iv2 uint16, nIv uint8, maxRefs uint16, twoWorkers bool) {
		fracs := []float64{float64(frac1) / 100, float64(frac2) / 100}
		if frac1 == 0 {
			fracs[0] = math.NaN()
		}
		fracs = fracs[:1+nFracs%2]
		intervals := []uint64{uint64(iv1), uint64(iv2)}[:nIv%3]
		workload, mem, refs := names[int(wl)%len(names)], int(memory%3), uint64(maxRefs)%20_000+1
		workers := 1
		if twoWorkers {
			workers = 2
		}
		if ts, err := AblateTimestamps(workload, mem, fracs[0], intervals, refs, uint64(iv1), workers); err == nil {
			want := len(intervals)
			if want == 0 {
				want = 4
			}
			if len(ts) != want {
				t.Fatalf("AblateTimestamps: %d rows for %d intervals", len(ts), want)
			}
		}
		if ev, err := AblateEviction(workload, mem, fracs, refs, uint64(iv2), workers); err == nil && len(ev) != len(fracs) {
			t.Fatalf("AblateEviction: %d rows for %d footprints", len(ev), len(fracs))
		}
	})
}

// FuzzAblateOptions drives AblateChoices, AblateSplit and AblateHash,
// whose trials fill a mosaic System until its first conflict. Lists of
// zero to two choice counts and splits, frame counts, trial counts and
// worker counts that are zero (the defaults), negative, odd or tiny
// either finish with one row per case or return an error, never panic.
// Frame counts other than the 32 768-frame default stay below 4096, and
// at most three trials run per case, so every accepted sweep is short.
func FuzzAblateOptions(f *testing.F) {
	f.Add(int8(6), int8(2), uint8(2), int8(56), int8(8), int8(62), int8(2), uint8(2), int16(1024), int8(2), int8(1), uint64(1))
	f.Add(int8(0), int8(-1), uint8(1), int8(0), int8(8), int8(-4), int8(4), uint8(1), int16(0), int8(0), int8(0), uint64(2))
	f.Add(int8(127), int8(1), uint8(1), int8(63), int8(1), int8(1), int8(63), uint8(2), int16(65), int8(1), int8(2), uint64(3))
	f.Add(int8(3), int8(3), uint8(2), int8(7), int8(7), int8(127), int8(127), uint8(1), int16(-64), int8(-1), int8(-1), uint64(4))
	f.Add(int8(1), int8(0), uint8(0), int8(48), int8(16), int8(0), int8(0), uint8(0), int16(1), int8(3), int8(2), uint64(5))
	f.Fuzz(func(t *testing.T, d1, d2 int8, nD uint8, f1, b1, f2, b2 int8, nSplits uint8, frames int16, trials, workers int8, seed uint64) {
		ds := []int{int(d1), int(d2)}[:nD%3]
		splits := [][2]int{{int(f1), int(b1)}, {int(f2), int(b2)}}[:nSplits%3]
		fr, tr, wk := int(frames)%4096, int(trials)%4, int(workers)%3
		// cases is the row count of an accepted sweep: n, or the
		// five-case default list when n is 0.
		cases := func(n int) int {
			if n == 0 {
				return 5
			}
			return n
		}
		if rows, err := AblateChoices(ds, fr, tr, seed, wk); err == nil && len(rows) != cases(len(ds)) {
			t.Fatalf("AblateChoices: %d rows for %d choice counts", len(rows), len(ds))
		}
		if rows, err := AblateSplit(splits, fr, tr, seed, wk); err == nil && len(rows) != cases(len(splits)) {
			t.Fatalf("AblateSplit: %d rows for %d splits", len(rows), len(splits))
		}
		if rows, err := AblateHash(fr, tr, seed, wk); err == nil && len(rows) != 3 {
			t.Fatalf("AblateHash: %d rows for 3 hashes", len(rows))
		}
	})
}
