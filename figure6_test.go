package mosaic

import (
	"fmt"
	"reflect"
	"testing"

	"mosaic/internal/obs"
)

// figure6PerPoint is the reference algorithm Figure6's grid must match:
// one simulator and one fresh workload per associativity point, with the
// observer on the last point when sampling.
func figure6PerPoint(t *testing.T, opt Figure6Options) Figure6Result {
	t.Helper()
	if err := opt.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	res := Figure6Result{Workload: opt.Workload}
	for i, ways := range opt.Ways {
		geom := TLBGeometry{Entries: opt.TLBEntries, Ways: ways}
		specs := []TLBSpec{{Geometry: geom}}
		for _, c := range opt.Coalesce {
			specs = append(specs, TLBSpec{Geometry: geom, Coalesce: c})
		}
		for _, a := range opt.Arities {
			specs = append(specs, TLBSpec{Geometry: geom, Arity: a})
		}
		cfg := SimConfig{Frames: opt.Frames, Specs: specs, Seed: opt.Seed}
		if opt.SampleEvery > 0 && i == len(opt.Ways)-1 {
			cfg.Obs = obs.NewObserver(opt.SampleEvery)
		}
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorkload(opt.Workload, opt.FootprintBytes, opt.Seed)
		if err != nil {
			t.Fatal(err)
		}
		res.Refs = RunBatch(w, sim, opt.MaxRefs)
		for _, r := range sim.Results() {
			res.Cells = append(res.Cells, Figure6Cell{Ways: ways, Label: r.Spec.Label(), Stats: r.TLB})
		}
		if cfg.Obs != nil {
			res.Metrics = sim.FinalizeMetrics().Snapshot()
			res.Series = sim.Sampler().Series()
			res.Events = cfg.Obs.Events.Events()
		}
	}
	return res
}

// TestFigure6GridMatchesPerPoint pins the single-pass grid: at every
// grouping of the associativity points, Figure6 reproduces the
// one-simulator-per-point algorithm cell for cell, and with sampling on it
// also reproduces the sampled point's series, events and metrics.
func TestFigure6GridMatchesPerPoint(t *testing.T) {
	for _, sample := range []uint64{0, 50_000} {
		opt := Figure6Options{
			Workload:       "gups",
			FootprintBytes: 8 << 20,
			MaxRefs:        200_000,
			TLBEntries:     256,
			Ways:           []int{1, 2, 4, 8, 256},
			Arities:        []int{4, 16},
			Coalesce:       []int{4},
			Seed:           7,
			SampleEvery:    sample,
		}
		want := figure6PerPoint(t, opt)
		for _, c := range []struct{ workers, groups int }{{1, 1}, {2, 2}, {3, 3}, {5, 5}} {
			t.Run(fmt.Sprintf("sample=%d/workers=%d", sample, c.workers), func(t *testing.T) {
				opt := opt
				opt.Workers = c.workers
				if err := opt.applyDefaults(); err != nil {
					t.Fatal(err)
				}
				if c.workers == 1 && sample > 0 {
					c.groups = 2 // the sampled point always runs on its own
				}
				if got := len(opt.groups()); got != c.groups {
					t.Errorf("%d groups, want %d", got, c.groups)
				}
				got, err := Figure6(opt)
				if err != nil {
					t.Fatal(err)
				}
				if got.Refs != want.Refs {
					t.Errorf("Refs = %d, per-point %d", got.Refs, want.Refs)
				}
				if len(got.Cells) != len(want.Cells) {
					t.Fatalf("%d cells, per-point %d", len(got.Cells), len(want.Cells))
				}
				for i := range want.Cells {
					if got.Cells[i] != want.Cells[i] {
						t.Errorf("cell %d = %+v, per-point %+v", i, got.Cells[i], want.Cells[i])
					}
				}
				if !reflect.DeepEqual(got.Series, want.Series) || !reflect.DeepEqual(got.Events, want.Events) ||
					!reflect.DeepEqual(got.Metrics, want.Metrics) {
					t.Error("sampled point's series, events or metrics differ from the per-point run")
				}
			})
		}
	}
}

// TestFigure6AcrossWorkloads is the scaled-down Figure 6 claim across
// workloads: at 256 fully associative entries, Mosaic-4 takes fewer TLB
// misses than vanilla on every workload, and GUPS, whose uniform random
// updates leave no locality for a mosaic entry's neighbours, benefits
// least. btree runs at 32 MiB rather than its committed 80 MiB: at 80 MiB
// the first ~10M refs only build the tree, where the two TLBs miss alike.
func TestFigure6AcrossWorkloads(t *testing.T) {
	workloads := []struct {
		name      string
		footprint uint64
	}{
		{"graph500", 32 << 20},
		{"btree", 32 << 20},
		{"xsbench", 32 << 20},
		{"gups", 128 << 20},
	}
	reduction := make([]float64, len(workloads))
	t.Run("workloads", func(t *testing.T) {
		for i, w := range workloads {
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				res, err := Figure6(Figure6Options{
					Workload:       w.name,
					FootprintBytes: w.footprint,
					MaxRefs:        5_000_000,
					TLBEntries:     256,
					Ways:           []int{256},
					Arities:        []int{4},
					Seed:           1,
					Workers:        1,
				})
				if err != nil {
					t.Fatal(err)
				}
				v, _ := res.MissesFor(256, "Vanilla")
				m, _ := res.MissesFor(256, "Mosaic-4")
				reduction[i] = 1 - float64(m)/float64(v)
				t.Logf("vanilla %d, Mosaic-4 %d misses: %.1f%% fewer", v, m, 100*reduction[i])
				if m >= v {
					t.Errorf("Mosaic-4 misses %d ≥ vanilla %d", m, v)
				}
			})
		}
	})
	gups := reduction[len(workloads)-1]
	for i, w := range workloads[:len(workloads)-1] {
		if reduction[i] <= gups {
			t.Errorf("%s reduction %.1f%% ≤ gups %.1f%%: gups should benefit least", w.name, 100*reduction[i], 100*gups)
		}
	}
}

// TestFigure6RejectsDuplicates: a repeated Ways, Arities or Coalesce entry
// is an error, not a repeated cell. With sampling on, a repeated arity
// used to register one series name twice and panic inside a sweep worker.
func TestFigure6RejectsDuplicates(t *testing.T) {
	for _, opt := range []Figure6Options{
		{Workload: "gups", TLBEntries: 64, Arities: []int{4, 4}, SampleEvery: 1000},
		{Workload: "gups", TLBEntries: 64, Arities: []int{4, 4}},
		{Workload: "gups", TLBEntries: 64, Ways: []int{8, 64, 8}},
		{Workload: "gups", TLBEntries: 64, Coalesce: []int{4, 4}, SampleEvery: 1000},
	} {
		opt.FootprintBytes, opt.MaxRefs = 1<<20, 10_000
		if _, err := Figure6(opt); err == nil {
			t.Errorf("Ways %v, Arities %v, Coalesce %v: no error", opt.Ways, opt.Arities, opt.Coalesce)
		}
	}
	// The default associativities list a TLB of at most 8 entries once.
	opt := Figure6Options{Workload: "gups", TLBEntries: 8}
	if err := opt.applyDefaults(); err != nil {
		t.Fatalf("TLBEntries 8 at default Ways: %v", err)
	}
	if !reflect.DeepEqual(opt.Ways, []int{1, 2, 4, 8}) {
		t.Errorf("default Ways at TLBEntries 8 = %v, want [1 2 4 8]", opt.Ways)
	}
}

// FuzzFigure6Options drives Figure6 with arbitrary TLB lists, entry
// counts, frame counts (small ones force evictions and swap), sampling
// cadences and one or two workers, at a footprint of at most 1 MiB and
// 20k references. Options it accepts must finish and fill every cell;
// options it rejects must return an error; nothing may panic.
func FuzzFigure6Options(f *testing.F) {
	f.Add(uint8(2), uint8(15), int16(64), uint8(2), int16(1), int16(64), uint8(2), int8(4), int8(16), uint8(1), int8(4), int16(0), uint16(1000), false)
	f.Add(uint8(0), uint8(3), int16(64), uint8(0), int16(0), int16(0), uint8(2), int8(4), int8(4), uint8(0), int8(0), int16(0), uint16(1000), true)
	f.Add(uint8(1), uint8(15), int16(32), uint8(1), int16(8), int16(0), uint8(1), int8(64), int8(0), uint8(1), int8(8), int16(96), uint16(777), true)
	f.Add(uint8(3), uint8(7), int16(-4), uint8(2), int16(3), int16(0), uint8(1), int8(-2), int8(0), uint8(1), int8(65), int16(-1), uint16(0), false)
	names := WorkloadNames()
	f.Fuzz(func(t *testing.T, wl, fp uint8, entries int16, nWays uint8, way1, way2 int16,
		nArities uint8, arity1, arity2 int8, nCoalesce uint8, coalesce int8, frames int16, sample uint16, twoWorkers bool) {
		opt := Figure6Options{
			Workload:       names[int(wl)%len(names)],
			FootprintBytes: (uint64(fp%16) + 1) << 16,
			MaxRefs:        20_000,
			TLBEntries:     int(entries),
			Ways:           []int{int(way1), int(way2)}[:nWays%3],
			Arities:        []int{int(arity1), int(arity2)}[:nArities%3],
			Coalesce:       []int{int(coalesce)}[:nCoalesce%2],
			Frames:         int(frames) % 4097,
			SampleEvery:    uint64(sample),
			Workers:        1,
		}
		if twoWorkers {
			opt.Workers = 2
		}
		res, err := Figure6(opt)
		if err != nil {
			return
		}
		if err := opt.applyDefaults(); err != nil {
			t.Fatalf("Figure6 accepted options its defaults reject: %v", err)
		}
		if want := len(opt.Ways) * (1 + len(opt.Coalesce) + len(opt.Arities)); len(res.Cells) != want {
			t.Fatalf("%d cells, want %d", len(res.Cells), want)
		}
		if res.Refs == 0 || res.Refs > opt.MaxRefs {
			t.Fatalf("ran %d references, want 1..%d", res.Refs, opt.MaxRefs)
		}
	})
}
