package mosaic

import (
	"math"
	"testing"

	"mosaic/internal/trace"
)

// TestRunBatchCounts: a capped run delivers exactly the cap, and an
// uncapped run reports the workload's own total.
func TestRunBatchCounts(t *testing.T) {
	w, err := NewWorkload("gups", 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	var c batchCountSink
	if got := RunBatch(w, &c, 1000); got != 1000 {
		t.Fatalf("RunBatch returned %d", got)
	}
	if c.n != 1000 {
		t.Fatalf("sink saw %d refs", c.n)
	}
	var c2 batchCountSink
	n := RunBatch(w, &c2, 0)
	if n == 0 || n != c2.n {
		t.Fatalf("unlimited run: n=%d sink=%d", n, c2.n)
	}
}

// panicSink fails on its first batch.
type panicSink struct{}

func (panicSink) ProcessBatch(trace.Batch) { panic("boom") }

// TestRunBatchPropagatesPanics: RunBatch recovers nothing, so a panic from
// the sink reaches the caller.
func TestRunBatchPropagatesPanics(t *testing.T) {
	w, _ := NewWorkload("gups", 1<<20, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("sink panic swallowed")
		}
	}()
	RunBatch(w, panicSink{}, 100)
}

func TestWorkloadNames(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 4 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		if _, err := NewWorkload(n, 1<<20, 1); err != nil {
			t.Errorf("NewWorkload(%q): %v", n, err)
		}
	}
	if _, err := NewWorkload("bogus", 1<<20, 1); err == nil {
		t.Error("bogus workload accepted")
	}
}

func TestFigure6Shape(t *testing.T) {
	res, err := Figure6(Figure6Options{
		Workload:       "gups",
		FootprintBytes: 8 << 20,
		MaxRefs:        400_000,
		TLBEntries:     256,
		Ways:           []int{1, 8, 256},
		Arities:        []int{4, 16},
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Refs != 400_000 {
		t.Fatalf("refs = %d", res.Refs)
	}
	if len(res.Cells) != 3*3 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	// Every cell saw the identical stream.
	for _, c := range res.Cells {
		if c.Stats.Lookups() != res.Refs {
			t.Fatalf("%s@%d-way saw %d lookups", c.Label, c.Ways, c.Stats.Lookups())
		}
	}
	vDirect, _ := res.MissesFor(1, "Vanilla")
	vFull, _ := res.MissesFor(256, "Vanilla")
	m4Full, _ := res.MissesFor(256, "Mosaic-4")
	m16Full, _ := res.MissesFor(256, "Mosaic-16")
	// On a uniform random stream, associativity barely matters; full
	// associativity must not be meaningfully worse than direct-mapped.
	if vFull > vDirect+vDirect/50 {
		t.Errorf("vanilla full-assoc misses %d ≫ direct %d", vFull, vDirect)
	}
	if m4Full >= vFull {
		t.Errorf("Mosaic-4 misses %d ≥ vanilla %d at full associativity", m4Full, vFull)
	}
	if m16Full > m4Full {
		t.Errorf("Mosaic-16 misses %d > Mosaic-4 %d", m16Full, m4Full)
	}
	// Mosaic's associativity insensitivity (§4.1): direct-mapped mosaic
	// within 2× of fully-associative mosaic.
	m4Direct, _ := res.MissesFor(1, "Mosaic-4")
	if m4Direct > 2*m4Full {
		t.Errorf("Mosaic-4 direct %d ≫ full %d: associativity sensitivity too high", m4Direct, m4Full)
	}
	if _, ok := res.MissesFor(2, "Vanilla"); ok {
		t.Error("MissesFor found a ways value that was not simulated")
	}
}

func TestFigure6Sampling(t *testing.T) {
	opts := Figure6Options{
		Workload:       "gups",
		FootprintBytes: 8 << 20,
		MaxRefs:        200_000,
		TLBEntries:     256,
		Ways:           []int{1, 256},
		Arities:        []int{4},
		Seed:           7,
		SampleEvery:    50_000,
	}
	res, err := Figure6(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("SampleEvery > 0 produced no series")
	}
	names := map[string]int{}
	for _, s := range res.Series {
		names[s.Name] = len(s.Values)
	}
	for _, want := range []string{"tlb.vanilla.hit_rate", "tlb.mosaic_4.hit_rate", "vm.utilization"} {
		if pts := names[want]; pts != 4 {
			t.Errorf("series %q has %d points, want 4 (series: %v)", want, pts, names)
		}
	}
	// Sampling must not perturb the sweep: the unsampled run produces
	// bit-identical miss counts.
	opts.SampleEvery = 0
	plain, err := Figure6(opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Series != nil {
		t.Error("unsampled run still carries series")
	}
	for i, c := range plain.Cells {
		if res.Cells[i] != c {
			t.Errorf("cell %d diverged with sampling: %+v vs %+v", i, res.Cells[i], c)
		}
	}
}

func TestFigure6DirectMappedMosaicBeatsFullVanilla(t *testing.T) {
	// §4.1: "a direct-mapped Mosaic-8 TLB outperforms a fully associative
	// vanilla TLB" on the TLB-bound workloads.
	res, err := Figure6(Figure6Options{
		Workload:       "btree",
		FootprintBytes: 8 << 20,
		MaxRefs:        1_500_000,
		TLBEntries:     128,
		Ways:           []int{1, 128},
		Arities:        []int{8},
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m8Direct, _ := res.MissesFor(1, "Mosaic-8")
	vFull, _ := res.MissesFor(128, "Vanilla")
	if m8Direct >= vFull {
		t.Errorf("direct-mapped Mosaic-8 (%d) did not beat fully-associative vanilla (%d)", m8Direct, vFull)
	}
}

func TestFigure6NeedsWorkload(t *testing.T) {
	if _, err := Figure6(Figure6Options{}); err == nil {
		t.Error("empty options accepted")
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3(Table3Options{
		Workloads:      []string{"btree"},
		MemoryMiB:      8,
		FootprintFracs: []float64{1.05, 1.20},
		Runs:           2,
		MaxRefs:        6_000_000,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FirstConflict < 0.95 || r.FirstConflict > 1.0 {
			t.Errorf("%s@%.0fMiB: first conflict %.4f outside [0.95, 1]", r.Workload, r.FootprintMiB, r.FirstConflict)
		}
		if r.Steady < r.FirstConflict-0.02 {
			t.Errorf("%s@%.0fMiB: steady state %.4f below first conflict %.4f", r.Workload, r.FootprintMiB, r.Steady, r.FirstConflict)
		}
		if r.Steady > 1.0 {
			t.Errorf("steady state %.4f above 1", r.Steady)
		}
	}
	// Steady-state utilization grows with footprint (paper: 99.22% → 99.99%).
	if rows[1].Steady < rows[0].Steady-0.005 {
		t.Errorf("steady state fell with footprint: %.4f → %.4f", rows[0].Steady, rows[1].Steady)
	}
}

func TestLinuxSwapOnset(t *testing.T) {
	onset, err := LinuxSwapOnset(8, "gups", 1)
	if err != nil {
		t.Fatal(err)
	}
	if onset < 0.98 || onset > 1.0 {
		t.Errorf("Linux swap onset %.4f, want ≈0.992", onset)
	}
	t.Logf("Linux swap onset at %.4f utilization (paper: ≈0.992)", onset)
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4(Table4Options{
		Workloads:      []string{"btree"},
		MemoryMiB:      8,
		FootprintFracs: []float64{1.10, 1.40},
		MaxRefs:        6_000_000,
		Runs:           1,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.LinuxKPages == 0 || r.MosaicKPages == 0 {
			t.Errorf("no swapping at footprint %.1f MiB: %+v", r.FootprintMiB, r)
		}
	}
	// Past the edge, mosaic matches or beats Linux (§4.3).
	if rows[0].DiffPercent < -20 {
		t.Errorf("mosaic swaps %.1f%% more than Linux well past the edge", -rows[0].DiffPercent)
	}
	// Swapping grows with footprint.
	if rows[1].LinuxKPages <= rows[0].LinuxKPages {
		t.Errorf("Linux swapping did not grow with footprint: %v → %v", rows[0].LinuxKPages, rows[1].LinuxKPages)
	}
}

// TestTable4EdgeHurtsMosaicFirst is Table 4's part (1): at the very edge of
// memory (the 1.015× column) mosaic swaps more than Linux on every
// workload, because Linux uses ~1% more memory before its watermarks fire.
// The claim holds at the committed settings (16 MiB, 20M refs, 2 runs;
// results/table4.txt reads −761.7 / −46.2 / −4.0%), not at smaller scale:
// at 8 MiB, 6M refs and one run, btree and xsbench already favour mosaic.
func TestTable4EdgeHurtsMosaicFirst(t *testing.T) {
	rows, err := Table4(Table4Options{
		MemoryMiB:      16,
		FootprintFracs: PaperFootprintFracs[:1],
		MaxRefs:        20_000_000,
		Runs:           2,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want one per workload", len(rows))
	}
	for _, r := range rows {
		t.Logf("%s at %.0f MiB: %+.2f%%", r.Workload, r.FootprintMiB, r.DiffPercent)
		if r.DiffPercent >= 0 {
			t.Errorf("%s: mosaic swaps %.1f%% less than Linux at the edge of memory, want more", r.Workload, r.DiffPercent)
		}
	}
}

// TestSwapIOsMatchesSeparateRuns: feeding several Systems from one stream
// gives each the swap I/O it has when it runs alone on a fresh stream. The
// configs are Table 4's two modes, the eviction ablation's naive regime and
// one scan-interval regime; the cap ends mid-batch.
func TestSwapIOsMatchesSeparateRuns(t *testing.T) {
	names := []string{"linux", "horizon", "naive", "scan@1024"}
	cfgs := []SystemConfig{
		{Mode: ModeVanilla},
		{Mode: ModeMosaic},
		{Mode: ModeMosaic, DisableHorizon: true},
		{Mode: ModeMosaic, ScanInterval: 1024},
	}
	const memoryMiB = 2
	frames := memoryMiB << 20 / PageSize
	footprint := uint64(memoryMiB<<20) * 6 / 5
	maxRefs := uint64(200*trace.DefaultBatchSize + 1234)
	for _, workload := range []string{"btree", "graph500"} {
		got, err := swapIOs(cfgs, frames, workload, footprint, 3, maxRefs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			cfg.Frames, cfg.Seed = frames, 3
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWorkload(workload, footprint, 3)
			if err != nil {
				t.Fatal(err)
			}
			RunBatch(w, vmSink{sys, 1}, maxRefs)
			want := sys.Device().TotalIO()
			if want == 0 {
				t.Errorf("%s %s: no swap I/O, so the check is vacuous", workload, names[i])
			}
			if got[i] != want {
				t.Errorf("%s %s: %d swap I/Os from the shared stream, %d alone", workload, names[i], got[i], want)
			}
		}
	}
}

func TestTable5Facade(t *testing.T) {
	rows := Table5()
	if len(rows) != 4 || rows[3].LUTs != 6208 {
		t.Fatalf("Table5 = %+v", rows)
	}
	asic := Table5ASIC()
	if len(asic) != 4 {
		t.Fatalf("Table5ASIC rows = %d", len(asic))
	}
	if asic[3].AreaKGE < 13.7 || asic[3].AreaKGE > 13.9 {
		t.Errorf("H=8 area = %.3f KGE, want ≈13.806", asic[3].AreaKGE)
	}
}

func TestIcebergDelta(t *testing.T) {
	res, err := IcebergDelta(IcebergDeltaOptions{Slots: 1 << 13, Trials: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean < 0.95 || res.Mean > 0.999 {
		t.Errorf("δ measurement: mean first-conflict load %.4f", res.Mean)
	}
	if res.Min > res.Mean || res.Max < res.Mean {
		t.Errorf("min/mean/max inconsistent: %+v", res)
	}
	t.Logf("1−δ = %.4f ± %.4f (paper: ≈0.9803)", res.Mean, res.SD)
}

// TestNegativeCountsRejected: a negative run or trial count, or a footprint
// fraction that is not positive, is a configuration error at every entry
// point — never a panic deep in a sweep, and never an empty table.
func TestNegativeCountsRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"table3 runs", func() error { _, err := Table3(Table3Options{Runs: -1}); return err }},
		{"table3 footprint", func() error { _, err := Table3(Table3Options{FootprintFracs: []float64{1.1, -1}}); return err }},
		{"table4 runs", func() error { _, err := Table4(Table4Options{Runs: -1}); return err }},
		{"table4 footprint", func() error { _, err := Table4(Table4Options{FootprintFracs: []float64{-1}}); return err }},
		{"table4 zero footprint", func() error { _, err := Table4(Table4Options{FootprintFracs: []float64{0}}); return err }},
		{"table4 NaN footprint", func() error { _, err := Table4(Table4Options{FootprintFracs: []float64{math.NaN()}}); return err }},
		{"iceberg delta trials", func() error { _, err := IcebergDelta(IcebergDeltaOptions{Trials: -1}); return err }},
		{"ablate choices trials", func() error { _, err := AblateChoices(nil, 0, -1, 1, 1); return err }},
		{"ablate split trials", func() error { _, err := AblateSplit(nil, 0, -1, 1, 1); return err }},
		{"ablate hash trials", func() error { _, err := AblateHash(0, -1, 1, 1); return err }},
		{"ablate timestamps footprint", func() error { _, err := AblateTimestamps("", 0, -1, nil, 0, 1, 1); return err }},
		{"ablate eviction footprint", func() error { _, err := AblateEviction("", 0, []float64{-1}, 0, 1, 1); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := tc.run(); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

func TestAblateChoices(t *testing.T) {
	rows, err := AblateChoices([]int{1, 6}, 1<<13, 3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Associativity != 64 || rows[1].Associativity != 104 {
		t.Errorf("associativities = %d, %d", rows[0].Associativity, rows[1].Associativity)
	}
	// More backyard choices must reach higher utilization before
	// conflicting.
	if rows[1].FirstConflict <= rows[0].FirstConflict {
		t.Errorf("d=6 (%.4f) not better than d=1 (%.4f)", rows[1].FirstConflict, rows[0].FirstConflict)
	}
}

func TestAblateSplit(t *testing.T) {
	rows, err := AblateSplit(nil, 1<<13, 2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FirstConflict < 0.80 || r.FirstConflict > 1.0 {
			t.Errorf("%s: first conflict %.4f implausible", r.Label, r.FirstConflict)
		}
	}
}

func TestAblateHash(t *testing.T) {
	rows, err := AblateHash(1<<13, 3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AblateRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	// Real hashes approach 98%; the weak hash conflicts earlier.
	for _, good := range []string{"xxhash", "tabulation"} {
		if byLabel[good].FirstConflict < 0.95 {
			t.Errorf("%s first conflict %.4f < 0.95", good, byLabel[good].FirstConflict)
		}
	}
	if byLabel["weak-clustering"].FirstConflict >= byLabel["xxhash"].FirstConflict {
		t.Errorf("weak hash (%.4f) not worse than xxhash (%.4f)",
			byLabel["weak-clustering"].FirstConflict, byLabel["xxhash"].FirstConflict)
	}
	t.Logf("hash ablation: xxhash=%.4f tabulation=%.4f weak=%.4f",
		byLabel["xxhash"].FirstConflict, byLabel["tabulation"].FirstConflict,
		byLabel["weak-clustering"].FirstConflict)
}

func TestAblateEviction(t *testing.T) {
	rows, err := AblateEviction("btree", 8, []float64{1.15}, 4_000_000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.HorizonKIO == 0 || r.NaiveKIO == 0 || r.LinuxKIO == 0 {
		t.Fatalf("missing swapping in some regime: %+v", r)
	}
	// The ghost mechanism must not be worse than naive candidate-LRU.
	if r.HorizonKIO > r.NaiveKIO*1.05 {
		t.Errorf("Horizon LRU (%.1fK) worse than naive (%.1fK)", r.HorizonKIO, r.NaiveKIO)
	}
	t.Logf("eviction ablation @1.15×: horizon=%.1fK naive=%.1fK linux=%.1fK (horizon vs naive: %+.1f%%)",
		r.HorizonKIO, r.NaiveKIO, r.LinuxKIO, r.HorizonVsNaive)
}

func TestAblateTimestamps(t *testing.T) {
	rows, err := AblateTimestamps("btree", 8, 1.15, []uint64{0, 2048}, 3_000_000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Label != "exact" || rows[1].Label != "scan@2048" {
		t.Fatalf("labels = %q, %q", rows[0].Label, rows[1].Label)
	}
	for _, r := range rows {
		if r.MosaicKIO == 0 {
			t.Errorf("%s: no swapping", r.Label)
		}
	}
	// Emulated timestamps must stay within a sane band of exact ones (the
	// prototype worked, per the paper; a catastrophic gap would mean the
	// emulation is broken).
	ratio := rows[1].MosaicKIO / rows[0].MosaicKIO
	if ratio > 2 || ratio < 0.5 {
		t.Errorf("scan emulation IO %.2f× exact — implausible", ratio)
	}
	t.Logf("exact=%.2fK scan=%.2fK (ratio %.3f)", rows[0].MosaicKIO, rows[1].MosaicKIO, ratio)
}

func TestFigure6WithCoalescedBaseline(t *testing.T) {
	res, err := Figure6(Figure6Options{
		Workload:       "gups",
		FootprintBytes: 4 << 20,
		MaxRefs:        200_000,
		TLBEntries:     128,
		Ways:           []int{8},
		Arities:        []int{4},
		Coalesce:       []int{4},
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	colt, ok := res.MissesFor(8, "CoLT-4")
	if !ok {
		t.Fatal("CoLT-4 cell missing")
	}
	m4, _ := res.MissesFor(8, "Mosaic-4")
	if m4 >= colt {
		t.Errorf("Mosaic-4 (%d) not below CoLT-4 (%d) under hashed placement", m4, colt)
	}
}
