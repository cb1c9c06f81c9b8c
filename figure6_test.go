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
