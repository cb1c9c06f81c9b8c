package mosaic

// TestParallelMatchesSequential is the PR's acceptance pin: running an
// experiment on a worker pool must be indistinguishable from the
// sequential run — not approximately, but byte for byte in the
// schema-versioned results.File JSON, including the sampled time series
// and structured events. It exercises every sweep.Run caller — Figure 6
// with sampling enabled, Table 3 with its per-run accumulators,
// fragmentation, multiprogramming, and the choices and eviction ablations
// — at workers=1 (the exact legacy path) and workers=4.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"mosaic/internal/results"
)

// fig6File runs a sampled Figure 6 sweep and renders it into the JSON a
// driver would write (mirroring cmd/fig6's collect).
func fig6File(t *testing.T, workers int) []byte {
	t.Helper()
	res, err := Figure6(Figure6Options{
		Workload:       "gups",
		FootprintBytes: 8 << 20,
		MaxRefs:        200_000,
		TLBEntries:     256,
		Ways:           []int{1, 2, 256},
		Arities:        []int{4},
		Seed:           7,
		SampleEvery:    50_000,
		Workers:        workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := results.New("fig6")
	f.SetMetric("fig6.gups.refs", float64(res.Refs))
	for _, c := range res.Cells {
		key := fmt.Sprintf("fig6.gups.%s.w%d.misses", results.Sanitize(c.Label), c.Ways)
		f.SetMetric(key, float64(c.Stats.Misses))
	}
	f.AddSnapshot("obs", res.Metrics)
	for _, s := range res.Series {
		vals := make([]results.Number, len(s.Values))
		for i, v := range s.Values {
			vals[i] = results.Number(v)
		}
		f.Series = append(f.Series, results.Series{Name: "gups." + s.Name, Refs: s.Refs, Values: vals})
	}
	f.Events = append(f.Events, res.Events...)
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// table3File runs a small Table 3 grid and renders it the way cmd/table3
// does.
func table3File(t *testing.T, workers int) []byte {
	t.Helper()
	rows, err := Table3(Table3Options{
		Workloads:      []string{"btree", "gups"},
		MemoryMiB:      8,
		FootprintFracs: []float64{1.05, 1.15},
		Runs:           2,
		MaxRefs:        2_000_000,
		Seed:           3,
		Workers:        workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := results.New("table3")
	for _, r := range rows {
		key := fmt.Sprintf("table3.%s.fp%.0f.", results.Sanitize(r.Workload), r.FootprintMiB)
		f.SetMetric(key+"first_conflict", r.FirstConflict)
		f.SetMetric(key+"first_conflict_sd", r.FirstConflictSD)
		f.SetMetric(key+"steady", r.Steady)
		f.SetMetric(key+"steady_sd", r.SteadySD)
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-experiment determinism pin")
	}
	t.Run("fig6", func(t *testing.T) {
		seq := fig6File(t, 1)
		par := fig6File(t, 4)
		if !bytes.Equal(seq, par) {
			t.Fatalf("fig6 JSON diverged between workers=1 and workers=4:\nseq: %s\npar: %s", seq, par)
		}
	})
	t.Run("table3", func(t *testing.T) {
		seq := table3File(t, 1)
		par := table3File(t, 4)
		if !bytes.Equal(seq, par) {
			t.Fatalf("table3 JSON diverged between workers=1 and workers=4:\nseq: %s\npar: %s", seq, par)
		}
	})
	// The remaining sweep.Run callers return plain row structs; their
	// %+v rendering carries every field at full float precision.
	rowCases := []struct {
		name string
		run  func(workers int) (any, error)
	}{
		{"frag", func(workers int) (any, error) {
			return Fragmentation(FragmentationOptions{Frames: 1 << 13, Seed: 4, Workers: workers})
		}},
		{"multiprog", func(workers int) (any, error) {
			res, refs, err := Multiprogram(MultiprogramOptions{
				Workloads:      []string{"gups", "kvstore"},
				FootprintBytes: 4 << 20,
				MaxRefsPerProc: 200_000,
				Seed:           5,
				Workers:        workers,
			})
			return []any{res, refs}, err
		}},
		{"ablate-choices", func(workers int) (any, error) {
			return AblateChoices([]int{1, 2, 6}, 1<<13, 2, 6, workers)
		}},
		{"ablate-eviction", func(workers int) (any, error) {
			return AblateEviction("btree", 8, []float64{1.05, 1.15}, 1_000_000, 7, workers)
		}},
		// The stream groups depend on the worker count: one pass feeds all
		// four Systems at workers=1, one pass each at workers=4.
		{"ablate-timestamps", func(workers int) (any, error) {
			return AblateTimestamps("btree", 8, 1.15, []uint64{0, 1024, 16384}, 1_000_000, 7, workers)
		}},
	}
	for _, c := range rowCases {
		t.Run(c.name, func(t *testing.T) {
			render := func(workers int) []byte {
				v, err := c.run(workers)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Appendf(nil, "%+v", v)
			}
			seq, par := render(1), render(4)
			if !bytes.Equal(seq, par) {
				t.Fatalf("%s rows diverged between workers=1 and workers=4:\nseq: %s\npar: %s", c.name, seq, par)
			}
		})
	}
}
