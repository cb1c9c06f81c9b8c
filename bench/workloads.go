package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"mosaic"
)

// workers is every sweep's pool size. One worker keeps a pass on one core:
// on the two-vCPU machine the benchmark was sized on, two workers contended
// for the shared cache and memory, so a fig6-gups pass took 25% more CPU
// and ten runs' run_s spread 25% (IQR over median) against 4% with one.
// It is a constant rather than runtime.NumCPU so results compare across
// machines; env records the cores.
const workers = 1

// traceWays is the associativity of the Figure 6 point the traced run
// follows: the paper's 8-way column.
const traceWays = 8

// workload is one benchmark workload: a public paper-artifact call at a
// fixed reduced scale, run as a closed loop (a pass starts only when the
// previous one has returned). Exactly one of fig6, table4 and sim is set.
type workload struct {
	name   string
	why    string
	fig6   *mosaic.Figure6Options
	table4 *mosaic.Table4Options
	sim    *simOptions
}

// simOptions is a single Simulator fed one workload stream: no sweep.
type simOptions struct {
	workload  string
	footprint uint64
	maxRefs   uint64
	cfg       mosaic.SimConfig
}

// workloads lists the benchmark in BENCHMARK.json order. Sizes give each
// pass 1.4–1.9 s on one core of an idle x86 machine, so a run's median is
// taken over about a dozen passes; README.md records why each workload is
// in the set.
func workloads() []workload {
	ways := []int{1, 2, 4, traceWays, 256}
	arities := []int{4, 8, 16, 32, 64}
	return []workload{
		{
			name: "fig6-gups",
			why:  "Miss-heavy Figure 6 sweep: half of all refs miss even a fully associative TLB, so TLB fills and page-table walks dominate",
			fig6: &mosaic.Figure6Options{Workload: "gups", FootprintBytes: 64 << 20, Frames: 4 * (64 << 20) / mosaic.PageSize,
				MaxRefs: 500_000, TLBEntries: 256, Ways: ways, Arities: arities, Workers: workers},
		},
		{
			name: "fig6-graph500",
			why:  "Hit-heavy Figure 6 sweep: almost every ref hits, so the OS translate path, TLB lookups and generation dominate",
			fig6: &mosaic.Figure6Options{Workload: "graph500", FootprintBytes: 16 << 20, Frames: 4 * (16 << 20) / mosaic.PageSize,
				MaxRefs: 1_500_000, TLBEntries: 256, Ways: ways, Arities: arities, Workers: workers},
		},
		{
			name: "table4-btree",
			why:  "Table 4 swap grid: faults, iceberg placement, Horizon LRU and swap under memory pressure, with no TLB at all",
			table4: &mosaic.Table4Options{Workloads: []string{"btree"}, MemoryMiB: 4,
				FootprintFracs: []float64{1.015, 1.202, 1.390, 1.577}, MaxRefs: 3_000_000, Runs: 1, Workers: workers},
		},
		{
			name: "cache-xsbench",
			why:  "One simulator with caches and walk cache, no sweep: the cache hierarchy and walk cache dominate",
			sim: &simOptions{workload: "xsbench", footprint: 32 << 20, maxRefs: 8_000_000, cfg: mosaic.SimConfig{
				Frames: 1 << 15, EnableCaches: true, EnableWalkCache: true,
				Specs: []mosaic.TLBSpec{
					{Geometry: mosaic.TLBGeometry{Entries: 256, Ways: 8}},
					{Geometry: mosaic.TLBGeometry{Entries: 256, Ways: 8}, Arity: 4},
				},
			}},
		},
	}
}

// workloadNamed finds a workload by name.
func workloadNamed(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// outcome is what one pass simulated: a digest of every simulated output,
// the traced cell's share of it, and any broken invariant.
type outcome struct {
	digest   string
	cellView string
	problems []string
}

// pass runs the workload's public call once.
func (w workload) pass(seed uint64) (outcome, error) {
	switch {
	case w.fig6 != nil:
		opt := *w.fig6
		opt.Seed = seed
		r, err := mosaic.Figure6(opt)
		if err != nil {
			return outcome{}, err
		}
		o := outcome{digest: digest(struct {
			Refs  uint64
			Cells []mosaic.Figure6Cell
		}{r.Refs, r.Cells})}
		if r.Refs != opt.MaxRefs {
			o.problems = append(o.problems, fmt.Sprintf("fig6 delivered %d refs per point, want %d", r.Refs, opt.MaxRefs))
		}
		if want := len(opt.Ways) * (1 + len(opt.Arities)); len(r.Cells) != want {
			o.problems = append(o.problems, fmt.Sprintf("fig6 has %d cells, want %d", len(r.Cells), want))
		}
		var traced []labelStats
		for _, c := range r.Cells {
			if c.Stats.Hits+c.Stats.Misses != r.Refs {
				o.problems = append(o.problems, fmt.Sprintf("fig6 %d-way %s: %d hits + %d misses != %d refs",
					c.Ways, c.Label, c.Stats.Hits, c.Stats.Misses, r.Refs))
			}
			if c.Ways == traceWays {
				traced = append(traced, labelStats{c.Label, c.Stats})
			}
		}
		o.cellView = digest(traced)
		return o, nil
	case w.table4 != nil:
		opt := *w.table4
		opt.Seed = seed
		rows, err := mosaic.Table4(opt)
		if err != nil {
			return outcome{}, err
		}
		if len(rows) != len(opt.FootprintFracs) {
			return outcome{}, fmt.Errorf("table4 returned %d rows, want %d", len(rows), len(opt.FootprintFracs))
		}
		last := rows[len(rows)-1]
		return outcome{digest: digest(rows), cellView: digest([]float64{last.LinuxKPages, last.MosaicKPages})}, nil
	default:
		c := w.cells(seed)[0]
		run, err := c.run(nil)
		if err != nil {
			return outcome{}, err
		}
		o := outcome{digest: run.view, cellView: run.view}
		for _, r := range run.sim.Results() {
			if r.TLB.Hits+r.TLB.Misses != c.maxRefs || r.Walks != r.TLB.Misses || r.TotalCycles == 0 {
				o.problems = append(o.problems, fmt.Sprintf("%s: inconsistent result %+v", r.Spec.Label(), r))
			}
		}
		return o, nil
	}
}

// labelStats is one TLB design point's outcome as both Figure6 and a
// Simulator report it.
type labelStats struct {
	Label string
	Stats any
}

// digest hashes a value's JSON encoding: the simulated outputs are
// deterministic, so equal digests mean equal results.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Every digested value is plain data; only a NaN could fail, and
		// an unencodable result must not compare equal to anything.
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cell is one independent simulation of a pass: a fresh workload stream
// fed to one memsim Simulator (sim set) or, for Table 4, to one vm System
// per mode. frames and modes describe the OS layer either way; a
// Simulator runs one mosaic-mode System.
type cell struct {
	workload  string
	footprint uint64
	seed      uint64
	maxRefs   uint64
	sim       *mosaic.SimConfig
	frames    int
	modes     []mosaic.Mode
	// full marks a cell whose pass exposes the whole Simulator result, so
	// the traced cell is compared on every field rather than TLB stats.
	full bool
}

// cells lists a pass's cells in the order the public call runs them.
func (w workload) cells(seed uint64) []cell {
	switch {
	case w.fig6 != nil:
		o := w.fig6
		var cs []cell
		for _, ways := range o.Ways {
			geom := mosaic.TLBGeometry{Entries: o.TLBEntries, Ways: ways}
			specs := []mosaic.TLBSpec{{Geometry: geom}}
			for _, a := range o.Arities {
				specs = append(specs, mosaic.TLBSpec{Geometry: geom, Arity: a})
			}
			cs = append(cs, cell{workload: o.Workload, footprint: o.FootprintBytes, seed: seed, maxRefs: o.MaxRefs,
				sim: &mosaic.SimConfig{Frames: o.Frames, Specs: specs, Seed: seed}, frames: o.Frames, modes: memsimOS})
		}
		return cs
	case w.table4 != nil:
		o := w.table4
		var cs []cell
		for _, frac := range o.FootprintFracs {
			cs = append(cs, cell{workload: o.Workloads[0], seed: seed, maxRefs: o.MaxRefs,
				footprint: uint64(frac * float64(o.MemoryMiB) * (1 << 20)),
				frames:    o.MemoryMiB << 20 / mosaic.PageSize,
				modes:     []mosaic.Mode{mosaic.ModeVanilla, mosaic.ModeMosaic}})
		}
		return cs
	default:
		cfg := w.sim.cfg
		cfg.Seed = seed
		return []cell{{workload: w.sim.workload, footprint: w.sim.footprint, seed: seed, maxRefs: w.sim.maxRefs,
			sim: &cfg, frames: cfg.Frames, modes: memsimOS, full: true}}
	}
}

// memsimOS is the OS layer under every Simulator: one mosaic-mode System.
var memsimOS = []mosaic.Mode{mosaic.ModeMosaic}

// tracedCell is the representative cell the traced run follows: the 8-way
// Figure 6 point, the largest Table 4 footprint, or the whole simulator.
func (w workload) tracedCell(seed uint64) cell {
	cs := w.cells(seed)
	if w.fig6 != nil {
		for i, ways := range w.fig6.Ways {
			if ways == traceWays {
				return cs[i]
			}
		}
	}
	return cs[len(cs)-1]
}

// osSink feeds a System the way Table 4 does: one TouchVA per reference,
// from address space 1.
type osSink struct{ sys *mosaic.System }

func (s osSink) ProcessBatch(b mosaic.Batch) {
	for _, r := range b {
		s.sys.TouchVA(1, r.VA(), r.Write())
	}
}

// consumers builds the cell's fresh consumers: one Simulator, or one
// System per mode.
func (c cell) consumers() ([]mosaic.BatchSink, error) {
	if c.sim != nil {
		sim, err := mosaic.NewSimulator(*c.sim)
		if err != nil {
			return nil, err
		}
		return []mosaic.BatchSink{sim}, nil
	}
	var sinks []mosaic.BatchSink
	for _, m := range c.modes {
		sys, err := mosaic.NewSystem(mosaic.SystemConfig{Frames: c.frames, Mode: m, Seed: c.seed})
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, osSink{sys})
	}
	return sinks, nil
}

// cellRun is one completed run of a cell: its Simulator, or its Systems.
type cellRun struct {
	sim       *mosaic.Simulator
	systems   []*mosaic.System
	delivered uint64
	view      string
}

// run feeds a fresh stream to each of the cell's consumers, through wrap
// when it is non-nil, and reports the simulated outcome.
func (c cell) run(wrap func(i int, next mosaic.BatchSink) mosaic.BatchSink) (cellRun, error) {
	sinks, err := c.consumers()
	if err != nil {
		return cellRun{}, err
	}
	var out cellRun
	for i, s := range sinks {
		wl, err := mosaic.NewWorkload(c.workload, c.footprint, c.seed)
		if err != nil {
			return cellRun{}, err
		}
		if wrap != nil {
			s = wrap(i, s)
		}
		out.delivered += mosaic.RunBatch(wl, s, c.maxRefs)
	}
	for _, s := range sinks {
		switch s := s.(type) {
		case *mosaic.Simulator:
			out.sim = s
		case osSink:
			out.systems = append(out.systems, s.sys)
		}
	}
	out.view = c.view(out)
	return out, nil
}

// view is the cell's simulated outcome in the form the untraced pass
// reports it, so a traced run can be checked against the pass.
func (c cell) view(r cellRun) string {
	if c.sim == nil {
		var kpages []float64
		for _, sys := range r.systems {
			kpages = append(kpages, float64(sys.Device().TotalIO())/1000)
		}
		return digest(kpages)
	}
	res := r.sim.Results()
	if c.full {
		return digest(res)
	}
	var ls []labelStats
	for _, x := range res {
		ls = append(ls, labelStats{x.Spec.Label(), x.TLB})
	}
	return digest(ls)
}

// setup times what a pass spends before its first simulated reference:
// each cell's constructors plus a one-reference RunBatch, summed.
func (w workload) setup(seed uint64) (time.Duration, error) {
	var total time.Duration
	for _, c := range w.cells(seed) {
		start := time.Now()
		sinks, err := c.consumers()
		if err != nil {
			return 0, err
		}
		for _, s := range sinks {
			wl, err := mosaic.NewWorkload(c.workload, c.footprint, c.seed)
			if err != nil {
				return 0, err
			}
			mosaic.RunBatch(wl, s, 1)
		}
		total += time.Since(start)
	}
	return total, nil
}

// counter is a BatchSink that only counts.
type counter struct{ n uint64 }

func (c *counter) ProcessBatch(b mosaic.Batch) { c.n += uint64(len(b)) }

// simulatedRefs checks that every cell's stream reaches its reference
// budget and returns the references one pass feeds to simulations: each
// cell's budget times the simulations it feeds. It runs the generators
// only, once per process, so no timed pass pays for it.
func (w workload) simulatedRefs(seed uint64) (float64, []string, error) {
	var total float64
	var problems []string
	for _, c := range w.cells(seed) {
		wl, err := mosaic.NewWorkload(c.workload, c.footprint, c.seed)
		if err != nil {
			return 0, nil, err
		}
		var n counter
		mosaic.RunBatch(wl, &n, c.maxRefs)
		if n.n != c.maxRefs {
			problems = append(problems, fmt.Sprintf("%s at %d bytes ends after %d refs, before its %d-ref budget",
				c.workload, c.footprint, n.n, c.maxRefs))
		}
		sims := len(c.modes)
		if c.sim != nil {
			sims = 1
		}
		total += float64(n.n) * float64(sims)
	}
	return total, problems, nil
}
