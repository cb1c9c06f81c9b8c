package mosaic

import (
	"context"
	"fmt"

	"mosaic/internal/core"
	"mosaic/internal/obs"
	"mosaic/internal/stats"
	"mosaic/internal/sweep"
	"mosaic/internal/trace"
	"mosaic/internal/vm"
)

// PaperFootprintFracs are Table 3/4's workload footprints expressed as
// fractions of the 4096 MiB mosaic pool (4158/4096 … 6459/4096).
var PaperFootprintFracs = []float64{
	4158.0 / 4096, 4413.0 / 4096, 4669.0 / 4096, 4924.0 / 4096, 5180.0 / 4096,
	5436.0 / 4096, 5691.0 / 4096, 5947.0 / 4096, 6203.0 / 4096, 6459.0 / 4096,
}

// checkRepeats rejects a negative run or trial count, which would otherwise
// panic sizing a sweep or render an empty table.
func checkRepeats(what string, n int) error {
	if n < 0 {
		return fmt.Errorf("mosaic: %s must not be negative, got %d", what, n)
	}
	return nil
}

// checkFootprintFracs rejects footprint fractions that are not positive
// (NaN included): no workload can be built at such a footprint.
func checkFootprintFracs(fracs ...float64) error {
	for _, f := range fracs {
		if !(f > 0) {
			return fmt.Errorf("mosaic: footprint fraction %v must be positive", f)
		}
	}
	return nil
}

// Table3Options parameterizes the memory-utilization experiment (§4.2).
type Table3Options struct {
	// Workloads defaults to the paper's three (graph500, xsbench, btree —
	// Table 3 omits GUPS).
	Workloads []string
	// MemoryMiB is the mosaic memory pool size (the paper reserves
	// 4096 MiB; default 16 MiB, preserving footprint/memory ratios).
	MemoryMiB int
	// FootprintFracs are workload footprints as fractions of the pool
	// (default: the paper's first four points, ≈1.015 … 1.202).
	FootprintFracs []float64
	// Runs averages over this many seeds (the paper uses ten; default 3).
	Runs int
	// MaxRefs caps each run (0 = run to completion).
	MaxRefs uint64
	// Seed is the base seed; run r uses Seed+r.
	Seed uint64
	// Workers bounds the sweep's worker pool (0 = GOMAXPROCS, 1 = the
	// exact sequential path); every workload × footprint × run cell is an
	// independent simulation.
	Workers int
	// Progress, when non-nil, receives a live status line per cell.
	Progress *obs.Progress
}

func (o *Table3Options) applyDefaults() error {
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"graph500", "xsbench", "btree"}
	}
	if o.MemoryMiB == 0 {
		o.MemoryMiB = 16
	}
	if len(o.FootprintFracs) == 0 {
		o.FootprintFracs = PaperFootprintFracs[:4]
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.MaxRefs == 0 {
		o.MaxRefs = 20_000_000
	}
	if err := checkRepeats("runs", o.Runs); err != nil {
		return err
	}
	return checkFootprintFracs(o.FootprintFracs...)
}

// Table3Row is one row of Table 3: utilization at the first associativity
// conflict (1−δ) and steady-state utilization, mean ± stddev over runs.
type Table3Row struct {
	Workload        string
	FootprintMiB    float64
	FirstConflict   float64
	FirstConflictSD float64
	Steady          float64
	SteadySD        float64
}

// touchRuns touches sys from asid once per run of b through TouchN. A run
// is a maximal stretch of consecutive references to one page, and it
// writes if any of its references does. afterRun, when not nil, is called
// after each run with the run's length. A run that a batch boundary cuts
// is touched as two runs, which TouchN makes no different.
func touchRuns(sys *vm.System, asid ASID, b trace.Batch, afterRun func(n uint64)) {
	for i := 0; i < len(b); {
		vpn, write := core.VPNOf(b[i].VA()), b[i].Write()
		j := i + 1
		for ; j < len(b) && core.VPNOf(b[j].VA()) == vpn; j++ {
			write = write || b[j].Write()
		}
		sys.TouchN(asid, vpn, uint64(j-i), write)
		if afterRun != nil {
			afterRun(uint64(j - i))
		}
		i = j
	}
}

// vmSink feeds a vm.System from one ASID, one TouchN per run of
// references to one page.
type vmSink struct {
	sys  *vm.System
	asid ASID
}

func (s vmSink) ProcessBatch(b trace.Batch) { touchRuns(s.sys, s.asid, b, nil) }

// table3Sink drives one Table 3 cell: every reference touches the mosaic VM
// system, and utilization is sampled every 4096 references once the first
// associativity conflict has occurred (the steady state). The sampling
// clock is the system's own reference clock, so it ticks the same at any
// batching.
type table3Sink struct {
	sys    *vm.System
	steady *stats.Running
}

func (s *table3Sink) ProcessBatch(b trace.Batch) {
	touchRuns(s.sys, 1, b, func(n uint64) {
		// Utilization and the first conflict can change only at a run's
		// first access, so every sample clock the run passes reads them
		// as they are after the run.
		end := s.sys.Clock()
		for k := end/4096 - (end-n)/4096; k > 0; k-- {
			if _, saw := s.sys.FirstConflictUtilization(); saw {
				s.steady.Observe(s.sys.Utilization())
			}
		}
	})
}

// onsetSink drives LinuxSwapOnset: each reference touches the vanilla VM
// system and records utilization at the first page-out. Page-outs, like
// utilization, can change only at a run's first access, so checking after
// the run is checking after that access.
type onsetSink struct {
	sys   *vm.System
	onset *float64
}

func (s onsetSink) ProcessBatch(b trace.Batch) {
	touchRuns(s.sys, 1, b, func(uint64) {
		if *s.onset < 0 && s.sys.Device().PageOuts() > 0 {
			*s.onset = s.sys.Utilization()
		}
	})
}

// table3Cell addresses one workload × footprint × run simulation.
type table3Cell struct {
	footprint uint64
	workload  string
	run       int
}

// table3Sample is one cell's outcome: the utilization at the first
// conflict and the mean steady-state utilization of that run.
type table3Sample struct {
	first  float64
	steady float64
}

// Table3 reproduces Table 3: for each workload × footprint it runs the
// mosaic allocator under memory pressure and reports when the first
// associativity conflict appears and how full memory stays afterwards.
// Every workload × footprint × run cell is an independent, seed-determined
// simulation, so the grid fans out across Options.Workers goroutines and
// folds back in submission order — the per-row Running accumulators see
// runs in exactly the sequential order.
func Table3(opt Table3Options) ([]Table3Row, error) {
	if err := opt.applyDefaults(); err != nil {
		return nil, err
	}
	frames := opt.MemoryMiB << 20 / PageSize
	var cells []table3Cell
	for _, frac := range opt.FootprintFracs {
		footprint := uint64(frac * float64(opt.MemoryMiB) * (1 << 20))
		for _, name := range opt.Workloads {
			for run := 0; run < opt.Runs; run++ {
				cells = append(cells, table3Cell{footprint: footprint, workload: name, run: run})
			}
		}
	}
	samples, err := sweep.Run(context.Background(), cells,
		func(_ context.Context, _ int, c table3Cell) (table3Sample, error) {
			seed := opt.Seed + uint64(c.run)*1009
			sys, err := NewSystem(SystemConfig{Frames: frames, Mode: ModeMosaic, Seed: seed})
			if err != nil {
				return table3Sample{}, err
			}
			w, err := NewWorkload(c.workload, c.footprint, seed)
			if err != nil {
				return table3Sample{}, err
			}
			var steady stats.Running
			delivered := RunBatch(w, &table3Sink{sys: sys, steady: &steady}, opt.MaxRefs)
			u, saw := sys.FirstConflictUtilization()
			if !saw && delivered == opt.MaxRefs {
				return table3Sample{}, fmt.Errorf("mosaic: %s at %.0f MiB ran out of its reference budget (MaxRefs %d) before the first conflict", c.workload, float64(c.footprint)/(1<<20), opt.MaxRefs)
			}
			if !saw {
				return table3Sample{}, fmt.Errorf("mosaic: %s at %.0f MiB never conflicted — footprint too small for the pool", c.workload, float64(c.footprint)/(1<<20))
			}
			if steady.N() == 0 {
				steady.Observe(sys.Utilization())
			}
			return table3Sample{first: u, steady: steady.Mean()}, nil
		},
		sweep.Options{Workers: opt.Workers, Progress: opt.Progress, Name: "table3"})
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for i := 0; i < len(cells); i += opt.Runs {
		var first, steady stats.Running
		for r := 0; r < opt.Runs; r++ {
			first.Observe(samples[i+r].first)
			steady.Observe(samples[i+r].steady)
		}
		rows = append(rows, Table3Row{
			Workload:        cells[i].workload,
			FootprintMiB:    float64(cells[i].footprint) / (1 << 20),
			FirstConflict:   first.Mean(),
			FirstConflictSD: first.Stddev(),
			Steady:          steady.Mean(),
			SteadySD:        steady.Stddev(),
		})
	}
	return rows, nil
}

// LinuxSwapOnset measures the utilization at which the vanilla (Linux-like)
// system performs its first swap under the same pressure — the §4.2
// comparison point (the paper observes ≈99.2%, set by zone watermarks).
func LinuxSwapOnset(memoryMiB int, workload string, seed uint64) (float64, error) {
	frames := memoryMiB << 20 / PageSize
	sys, err := NewSystem(SystemConfig{Frames: frames, Mode: ModeVanilla})
	if err != nil {
		return 0, err
	}
	w, err := NewWorkload(workload, uint64(float64(memoryMiB)*(1<<20)*1.1), seed)
	if err != nil {
		return 0, err
	}
	onset := -1.0
	RunBatch(w, onsetSink{sys: sys, onset: &onset}, 30_000_000)
	if onset < 0 {
		return 0, fmt.Errorf("mosaic: vanilla system never swapped")
	}
	return onset, nil
}

// IcebergDeltaOptions parameterizes the standalone δ measurement.
type IcebergDeltaOptions struct {
	// Slots is the table capacity (default 1<<15).
	Slots int
	// Trials averages over this many random fills (default 10).
	Trials int
	// Geometry defaults to DefaultGeometry.
	Geometry Geometry
	// Seed is the base seed.
	Seed uint64
	// Workers bounds the trial fan-out (0 = GOMAXPROCS, 1 = sequential).
	Workers int
}

// IcebergDeltaResult reports the load factor at the first conflict.
type IcebergDeltaResult struct {
	Mean, SD, Min, Max float64
	Trials             int
}

// IcebergDelta measures δ for the iceberg allocator in isolation: fill
// memory with distinct pages until the first associativity conflict and
// report the load factor, averaged over trials (§4.2's "δ is roughly 2%").
func IcebergDelta(opt IcebergDeltaOptions) (IcebergDeltaResult, error) {
	if opt.Slots == 0 {
		opt.Slots = 1 << 15
	}
	if opt.Trials == 0 {
		opt.Trials = 10
	}
	if err := checkRepeats("trials", opt.Trials); err != nil {
		return IcebergDeltaResult{}, err
	}
	if opt.Geometry == (Geometry{}) {
		opt.Geometry = DefaultGeometry
	}
	us, err := sweep.Run(context.Background(), make([]struct{}, opt.Trials),
		func(_ context.Context, trial int, _ struct{}) (float64, error) {
			sys, err := NewSystem(SystemConfig{
				Frames:   opt.Slots,
				Mode:     ModeMosaic,
				Geometry: opt.Geometry,
				Seed:     opt.Seed + uint64(trial)*7919,
			})
			if err != nil {
				return 0, err
			}
			for vpn := VPN(0); ; vpn++ {
				sys.Touch(1, vpn, true)
				if u, saw := sys.FirstConflictUtilization(); saw {
					return u, nil
				}
				if int(vpn) > 2*opt.Slots {
					return 0, fmt.Errorf("mosaic: no conflict after 2× capacity")
				}
			}
		},
		sweep.Options{Workers: opt.Workers, Name: "iceberg delta"})
	if err != nil {
		return IcebergDeltaResult{}, err
	}
	var r stats.Running
	for _, u := range us {
		r.Observe(u)
	}
	return IcebergDeltaResult{Mean: r.Mean(), SD: r.Stddev(), Min: r.Min(), Max: r.Max(), Trials: opt.Trials}, nil
}
