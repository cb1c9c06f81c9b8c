package mosaic

import (
	"math"
	"testing"
)

func TestFragmentationShape(t *testing.T) {
	rows, err := Fragmentation(FragmentationOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	fresh := rows[0] // chunk order 9: unfragmented
	worst := rows[len(rows)-1]

	// On a fresh machine huge pages back everything for free.
	if fresh.HugeBackedPct != 100 || fresh.CompactionCopies != 0 || fresh.UnusableIndex != 0 {
		t.Errorf("unfragmented row implausible: %+v", fresh)
	}
	// Under page-granularity fragmentation, huge backing collapses and
	// compaction gets expensive (or infeasible).
	if worst.HugeBackedPct > 10 {
		t.Errorf("huge backing survived worst-case fragmentation: %.1f%%", worst.HugeBackedPct)
	}
	if worst.CompactionCopies == 0 {
		t.Error("worst-case compaction reported free")
	}
	// Compaction cost grows with severity (where feasible).
	prev := -1
	for _, r := range rows {
		if r.CompactionCopies < 0 {
			continue
		}
		if r.CompactionCopies < prev {
			t.Errorf("compaction cost not monotone: %+v", rows)
			break
		}
		prev = r.CompactionCopies
	}
	// Mosaic is indifferent to fragmentation: backs ~everything (only
	// associativity conflicts near 100% utilization are excluded) at every
	// severity, with zero copies.
	for _, r := range rows {
		if r.MosaicBackedPct < 95 {
			t.Errorf("chunk %d: mosaic backed only %.1f%%", r.ChunkOrder, r.MosaicBackedPct)
		}
		if r.MosaicCopies != 0 {
			t.Errorf("mosaic reported %d copies", r.MosaicCopies)
		}
	}
	spread := maxPct(rows) - minPct(rows)
	if spread > 3 {
		t.Errorf("mosaic backing varies %.1f points with fragmentation; should be flat", spread)
	}
	// TLB-entry accounting: fragmentation costs the huge-page system up to
	// 512× the entries; mosaic stays constant.
	if fresh.HugeTLBEntries >= fresh.MosaicTLBEntries {
		t.Errorf("fresh machine: huge entries %d not below mosaic %d",
			fresh.HugeTLBEntries, fresh.MosaicTLBEntries)
	}
	if worst.HugeTLBEntries <= worst.MosaicTLBEntries {
		t.Errorf("fragmented machine: huge entries %d not above mosaic %d",
			worst.HugeTLBEntries, worst.MosaicTLBEntries)
	}
	if fresh.MosaicTLBEntries != worst.MosaicTLBEntries {
		t.Error("mosaic entry count varied with fragmentation")
	}
}

func minPct(rows []FragmentationRow) float64 {
	m := rows[0].MosaicBackedPct
	for _, r := range rows {
		if r.MosaicBackedPct < m {
			m = r.MosaicBackedPct
		}
	}
	return m
}

func maxPct(rows []FragmentationRow) float64 {
	m := rows[0].MosaicBackedPct
	for _, r := range rows {
		if r.MosaicBackedPct > m {
			m = r.MosaicBackedPct
		}
	}
	return m
}

func TestFragmentationValidation(t *testing.T) {
	if _, err := Fragmentation(FragmentationOptions{Frames: 10}); err == nil {
		t.Error("tiny memory accepted")
	}
	if _, err := Fragmentation(FragmentationOptions{FreeFrac: 1.5}); err == nil {
		t.Error("free fraction > 1 accepted")
	}
	if _, err := Fragmentation(FragmentationOptions{ChunkOrders: []int{20}}); err == nil {
		t.Error("oversized chunk order accepted")
	}
}

func TestFragmentationDeterministic(t *testing.T) {
	a, err := Fragmentation(FragmentationOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fragmentation(FragmentationOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// FuzzFragmentationOptions: memories of at most 2^14 frames (zero takes
// the default, negative and sub-huge-page sizes are errors), free
// fractions that are zero, negative, above one, tiny or NaN, severity
// lists of zero to three orders (negative and oversized ones too) and
// worker counts either finish with one row per severity and percentages
// in [0, 100] or return an error, never panic. A NaN fraction is an
// error.
func FuzzFragmentationOptions(f *testing.F) {
	f.Add(int16(0), int16(50), int8(9), int8(0), int8(4), uint8(3), false)
	f.Add(int16(512), int16(100), int8(0), int8(9), int8(2), uint8(2), true)
	f.Add(int16(-512), int16(0), int8(-1), int8(10), int8(3), uint8(1), false)
	f.Add(int16(1000), int16(-7), int8(2), int8(6), int8(127), uint8(3), true)
	f.Add(int16(16383), int16(1), int8(1), int8(5), int8(9), uint8(0), false)
	f.Add(int16(4096), int16(101), int8(3), int8(3), int8(3), uint8(2), true)
	f.Add(int16(4096), int16(-1), int8(9), int8(0), int8(0), uint8(1), false) // NaN
	f.Add(int16(4096), int16(1), int8(0), int8(0), int8(0), uint8(1), false)  // 1e-9
	f.Fuzz(func(t *testing.T, frames, freePct int16, o1, o2, o3 int8, nOrders uint8, twoWorkers bool) {
		free := float64(freePct) / 100
		if freePct == 1 {
			free = 1e-9
		}
		if freePct == -1 {
			free = math.NaN()
		}
		opt := FragmentationOptions{
			Frames:      int(frames) % (1<<14 + 1),
			FreeFrac:    free,
			ChunkOrders: []int{int(o1), int(o2), int(o3)}[:nOrders%4],
			Seed:        uint64(frames),
			Workers:     1,
		}
		if twoWorkers {
			opt.Workers = 2
		}
		rows, err := Fragmentation(opt)
		if err != nil {
			return
		}
		if math.IsNaN(opt.FreeFrac) {
			t.Fatal("Fragmentation accepted a NaN free fraction")
		}
		if want := len(opt.ChunkOrders); len(rows) != want && !(want == 0 && len(rows) == 5) {
			t.Fatalf("%d rows for %d severities", len(rows), want)
		}
		for _, r := range rows {
			for _, pct := range []float64{r.HugeBackedPct, r.MosaicBackedPct, 100 * r.UnusableIndex} {
				if !(pct >= 0 && pct <= 100) {
					t.Fatalf("row %+v: a percentage outside [0, 100]", r)
				}
			}
		}
	})
}
