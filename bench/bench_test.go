package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mosaic"
)

// tiny shrinks a workload to at most 100k references so the whole
// benchmark path runs in seconds, under the race detector too.
func tiny(w workload) workload {
	switch {
	case w.fig6 != nil:
		o := *w.fig6
		o.FootprintBytes, o.MaxRefs = 2<<20, 10_000
		o.Frames = int(4 * o.FootprintBytes / mosaic.PageSize)
		o.Ways, o.Arities = []int{1, traceWays}, []int{4, 8}
		w.fig6 = &o
	case w.table4 != nil:
		o := *w.table4
		o.MemoryMiB, o.MaxRefs, o.FootprintFracs = 1, 20_000, []float64{1.2}
		w.table4 = &o
	default:
		o := *w.sim
		o.footprint, o.maxRefs, o.cfg.Frames = 2<<20, 20_000, 2048
		w.sim = &o
	}
	return w
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkNames asserts that a run emitted exactly the declared metrics.
func checkNames(t *testing.T, what string, got metricSet, want []metricSpec) {
	t.Helper()
	var names, declared []string
	for name, m := range got {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", what, name)
		}
		if spec, _ := specFor(name); m.Unit != spec.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", what, name, m.Unit, spec.Unit)
		}
		names = append(names, name)
	}
	for _, s := range want {
		declared = append(declared, s.Name)
	}
	slices.Sort(names)
	slices.Sort(declared)
	if !slices.Equal(names, declared) {
		t.Errorf("%s: emitted metrics %v, declared %v", what, names, declared)
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// scale. The traced run checks its cell against the untraced pass itself,
// so a correct result means the traced cell's stats equal the untraced.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads() {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(w, 1, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < warmup+minPasses {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d problems=%q", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			checkNames(t, "untraced", res.Metrics, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("untraced %s = %v, want > 0", name, m.Value)
				}
			}

			tr, err := traceRun(w, 1, res.Digest)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct || tr.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d problems=%q", tr.Correct, tr.Failed, tr.Problems)
			}
			checkNames(t, "traced", tr.Metrics, perLayer)
			var rungs []string
			for _, r := range tr.Trace.Ladder {
				rungs = append(rungs, r.Name)
			}
			if want := []string{"replay", "os", "+vanilla", "+mosaic", "+walkcache", "+caches"}; !slices.Equal(rungs, want) {
				t.Errorf("ladder rungs %v, want %v", rungs, want)
			}
			var sims int
			for _, s := range tr.Trace.Spans {
				if s.Name == "sim" {
					sims++
				}
			}
			if sims == 0 {
				t.Error("traced run recorded no sim spans")
			}
		})
	}
}

// TestAWrongGoldenFails checks that a digest mismatch is a failed check.
func TestAWrongGoldenFails(t *testing.T) {
	w := tiny(workloads()[len(workloads())-1])
	res, err := measure(w, 1, 0, strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != warmup+minPasses {
		t.Errorf("correct=%v failed=%d, want every pass failed", res.Correct, res.Failed)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this package runs and emits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark {%s %s}", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %+v, benchmark %+v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json %+v, benchmark %+v", spec.PerLayer, perLayer)
	}
}

// TestGoldensCoverEveryWorkload checks both committed seeds.
func TestGoldensCoverEveryWorkload(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		g, err := goldens(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads() {
			if len(g[w.name]) != 64 {
				t.Errorf("seed %d: golden digest for %s is %q", seed, w.name, g[w.name])
			}
		}
	}
}

func TestCompare(t *testing.T) {
	e := newEnv(1, 10, false)
	rep := func(runS, setupS float64, failed int) report {
		return report{Env: e, Workloads: map[string]result{"fig6-gups": {
			Attempted: 7, Failed: failed,
			Metrics: metricSet{
				"run_s":   {Value: runS, Unit: "s"},
				"setup_s": {Value: setupS, Unit: "s"},
			},
		}}}
	}
	noisy := func(r report) report {
		w := r.Workloads["fig6-gups"]
		w.Metrics["run_s"] = metric{Value: 1.3, Unit: "s", Samples: []float64{0.8, 1.0, 1.3, 1.6, 1.9}}
		return r
	}
	for _, tc := range []struct {
		name string
		b    report
		code int
		want string
	}{
		{"same", rep(1.0, 0.004, 0), 0, "noise"},
		{"inside bound", rep(1.2, 0.004, 0), 0, "noise"},
		{"slower", rep(1.3, 0.004, 0), 1, "REGRESSION"},
		{"faster", rep(0.7, 0.004, 0), 0, "improved"},
		{"setup under floor", rep(1.0, 0.0055, 0), 0, "noise"},
		{"setup over floor", rep(1.0, 0.0065, 0), 1, "REGRESSION"},
		{"errors", rep(1.0, 0.004, 1), 1, "REGRESSION"},
		{"spread wider than the bound", noisy(rep(1.3, 0.004, 0)), 0, "unresolved"},
	} {
		var out bytes.Buffer
		if code := compareReports(rep(1.0, 0.004, 0), tc.b, &out); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d; output:\n%s", tc.name, code, tc.code, out.String())
		}
	}
	other := rep(1.0, 0.004, 0)
	other.Env.NumCPU++
	var out bytes.Buffer
	if code := compareReports(rep(1.0, 0.004, 0), other, &out); code != 2 {
		t.Errorf("different environments: exit %d, want 2", code)
	}
}
