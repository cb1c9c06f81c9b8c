package mosaic

import (
	"context"
	"fmt"

	"mosaic/internal/obs"
	"mosaic/internal/sweep"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
)

// RunBatch drives a workload into a batch sink, stopping after maxRefs
// references (0 means unlimited), and returns the number delivered. The
// budget lives in the workload's trace.Batcher: the sink receives exactly
// the first maxRefs references of the workload's stream, in
// trace.DefaultBatchSize batches, and the workload returns once the budget
// is spent.
func RunBatch(w Workload, sink BatchSink, maxRefs uint64) uint64 {
	b := trace.NewBatcher(sink, maxRefs)
	w.Run(b)
	b.Flush()
	return b.Delivered()
}

// Figure6Options parameterizes the Figure 6 reproduction (TLB misses vs
// TLB associativity × mosaic arity, per workload).
type Figure6Options struct {
	// Workload is one of WorkloadNames().
	Workload string
	// FootprintBytes sizes the workload (default 32 MiB — ≥8× the reach
	// of the default 1024-entry vanilla TLB, preserving the paper's
	// footprint ≫ reach regime at simulation-friendly scale).
	FootprintBytes uint64
	// MaxRefs caps the references simulated per associativity point
	// (default 8,000,000; 0 = run the workload to completion, the
	// full-fidelity setting).
	MaxRefs uint64
	// TLBEntries is the TLB size (Table 1a uses 1024).
	TLBEntries int
	// Ways lists the associativities (default 1, 2, 4, 8, TLBEntries —
	// the paper's direct / 2-way / 4-way / 8-way / fully-associative).
	Ways []int
	// Arities lists the mosaic arities (default 4, 8, 16, 32, 64).
	Arities []int
	// Coalesce lists CoLT-style coalescing baselines (run lengths) to
	// include alongside vanilla and mosaic; empty means none. Under
	// mosaic's hashed placement these illustrate how little contiguity-
	// dependent coalescing recovers (§5.2).
	Coalesce []int
	// Seed drives workload generation and placement hashing.
	Seed uint64
	// Frames is the simulated DRAM size (default 4× footprint, so Figure 6
	// measures TLB behaviour without memory pressure, as in the paper).
	Frames int
	// SampleEvery, when positive, attaches the observability bundle to the
	// fully-associative point (the last Ways entry) and records windowed
	// time series every SampleEvery references into Result.Series/Events.
	// Only one point is sampled so the sweep itself stays unperturbed.
	SampleEvery uint64
	// Workers bounds the sweep's worker pool (0 = GOMAXPROCS). The
	// associativity points are split into min(Workers, len(Ways))
	// contiguous groups, and each group is one simulation: one workload
	// pass feeding every TLB unit of its points. Workers 1 is therefore a
	// single pass for the whole sweep. With SampleEvery set, the sampled
	// point is a group of its own. Every TLB sees the identical reference
	// stream in any grouping, so any worker count produces bit-identical
	// results.
	Workers int
	// Progress, when non-nil, receives a live status line per sweep point.
	Progress *obs.Progress
}

func (o *Figure6Options) applyDefaults() error {
	if o.Workload == "" {
		return fmt.Errorf("mosaic: Figure6 needs a workload name")
	}
	if o.FootprintBytes == 0 {
		o.FootprintBytes = 32 << 20
	}
	if o.MaxRefs == 0 {
		o.MaxRefs = 8_000_000
	}
	if o.TLBEntries == 0 {
		o.TLBEntries = 1024
	}
	if len(o.Ways) == 0 {
		o.Ways = []int{1, 2, 4, 8, o.TLBEntries}
	}
	if len(o.Arities) == 0 {
		o.Arities = []int{4, 8, 16, 32, 64}
	}
	if o.Frames == 0 {
		o.Frames = int(4 * o.FootprintBytes / PageSize)
	}
	return nil
}

// Figure6Cell is one bar of Figure 6: a (associativity, design) point.
type Figure6Cell struct {
	// Ways is the TLB associativity of this column group.
	Ways int
	// Label is "Vanilla" or "Mosaic-<arity>".
	Label string
	// Stats is the TLB hit/miss breakdown.
	Stats tlb.Stats
}

// Figure6Result is a full sub-figure (one workload).
type Figure6Result struct {
	Workload string
	// Refs is the number of references simulated per associativity point.
	Refs  uint64
	Cells []Figure6Cell
	// Series and Events hold the time-series samples and structured events
	// from the fully-associative point; nil unless Options.SampleEvery > 0.
	Series []obs.Series
	Events []obs.Event
	// Metrics is the finalized metrics snapshot of the sampled point
	// (zero-valued unless Options.SampleEvery > 0). Drivers running
	// several workloads merge these via sweep.Merger.
	Metrics obs.Snapshot
}

// MissesFor returns the miss count of a (ways, label) cell.
func (r Figure6Result) MissesFor(ways int, label string) (uint64, bool) {
	for _, c := range r.Cells {
		if c.Ways == ways && c.Label == label {
			return c.Stats.Misses, true
		}
	}
	return 0, false
}

// fig6Group is a contiguous run of associativity points simulated in one
// pass; sampled marks the fully-associative point when it carries the
// observer.
type fig6Group struct {
	ways    []int
	sampled bool
}

// groups splits the associativity points into the sweep's simulations:
// min(Workers, len(Ways)) contiguous groups, with a sampled point kept as
// a group of its own so its series and metric names stay per-point.
func (o Figure6Options) groups() []fig6Group {
	ways := o.Ways
	n := sweep.Options{Workers: o.Workers}.PoolSize(len(ways))
	var sampled []fig6Group
	if o.SampleEvery > 0 {
		sampled = []fig6Group{{ways: ways[len(ways)-1:], sampled: true}}
		ways = ways[:len(ways)-1]
		n = max(n-1, 1)
	}
	n = min(n, len(ways))
	var gs []fig6Group
	for i := 0; i < n; i++ {
		gs = append(gs, fig6Group{ways: ways[i*len(ways)/n : (i+1)*len(ways)/n]})
	}
	return append(gs, sampled...)
}

// specs lists the TLB units of one group's simulation, ways-major: at each
// associativity a vanilla TLB, then the CoLT baselines, then one mosaic
// TLB per arity — the order of Figure6Result.Cells.
func (o Figure6Options) specs(ways []int) []TLBSpec {
	var specs []TLBSpec
	for _, w := range ways {
		geom := TLBGeometry{Entries: o.TLBEntries, Ways: w}
		specs = append(specs, TLBSpec{Geometry: geom})
		for _, c := range o.Coalesce {
			specs = append(specs, TLBSpec{Geometry: geom, Coalesce: c})
		}
		for _, a := range o.Arities {
			specs = append(specs, TLBSpec{Geometry: geom, Arity: a})
		}
	}
	return specs
}

// fig6Point is one group's outcome, carried back through the sweep engine
// for the index-ordered fold into Figure6Result.
type fig6Point struct {
	refs    uint64
	cells   []Figure6Cell
	series  []obs.Series
	events  []obs.Event
	metrics obs.Snapshot
	sampled bool
}

// Figure6 reproduces one sub-figure of Figure 6: for each TLB
// associativity, it feeds an identical workload reference stream through a
// vanilla TLB and a mosaic TLB per arity (the paper's dual-TLB
// methodology) and reports the miss counts. As in the paper, one pass
// feeds every TLB at once: a group of associativity points is one
// simulator carrying all of their TLB units, so the workload generator and
// the OS layer run once per reference for the whole group. Groups (see
// Options.Workers) are independent simulations of the same seeded stream,
// so they fan out across Options.Workers goroutines with bit-identical
// results.
func Figure6(opt Figure6Options) (Figure6Result, error) {
	if err := opt.applyDefaults(); err != nil {
		return Figure6Result{}, err
	}
	points, err := sweep.Run(context.Background(), opt.groups(),
		func(_ context.Context, _ int, g fig6Group) (fig6Point, error) {
			// Only the sampled group carries an observer, so sampling one
			// point cannot perturb any other.
			var ob *obs.Observer
			if g.sampled {
				ob = obs.NewObserver(opt.SampleEvery)
			}
			sim, err := NewSimulator(SimConfig{Frames: opt.Frames, Specs: opt.specs(g.ways), Seed: opt.Seed, Obs: ob})
			if err != nil {
				return fig6Point{}, err
			}
			// A fresh workload with the same seed replays the identical
			// reference stream in every group.
			w, err := NewWorkload(opt.Workload, opt.FootprintBytes, opt.Seed)
			if err != nil {
				return fig6Point{}, err
			}
			p := fig6Point{refs: RunBatch(w, sim, opt.MaxRefs)}
			for _, r := range sim.Results() {
				p.cells = append(p.cells, Figure6Cell{
					Ways:  r.Spec.Geometry.Ways,
					Label: r.Spec.Label(),
					Stats: r.TLB,
				})
			}
			if ob != nil {
				p.metrics = sim.FinalizeMetrics().Snapshot()
				p.series = sim.Sampler().Series()
				p.events = ob.Events.Events()
				p.sampled = true
			}
			return p, nil
		},
		sweep.Options{Workers: opt.Workers, Progress: opt.Progress,
			Name: "fig6 " + opt.Workload + " (one pass per group of ways)"})
	if err != nil {
		return Figure6Result{}, err
	}
	res := Figure6Result{Workload: opt.Workload}
	for _, p := range points {
		if res.Refs == 0 {
			res.Refs = p.refs
		} else if res.Refs != p.refs {
			return Figure6Result{}, fmt.Errorf("mosaic: reference streams diverged across associativities (%d vs %d)", res.Refs, p.refs)
		}
		res.Cells = append(res.Cells, p.cells...)
		if p.sampled {
			res.Series = p.series
			res.Events = p.events
			res.Metrics = p.metrics
		}
	}
	return res, nil
}
