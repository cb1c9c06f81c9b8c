package mosaic

import (
	"context"

	"mosaic/internal/obs"
	"mosaic/internal/stats"
	"mosaic/internal/sweep"
	"mosaic/internal/trace"
)

// Table4Options parameterizes the swapping experiment (§4.3).
type Table4Options struct {
	// Workloads defaults to the paper's three (graph500, xsbench, btree).
	Workloads []string
	// MemoryMiB is the memory pool size (paper: 4096 MiB; default 16 MiB).
	MemoryMiB int
	// FootprintFracs are footprints as fractions of the pool (default:
	// the paper's ten steps, ≈1.015 … 1.577).
	FootprintFracs []float64
	// MaxRefs caps each run; both systems see the identical prefix of the
	// workload stream (default 20,000,000; 0 = completion).
	MaxRefs uint64
	// Runs averages over this many seeds (paper: 5; default 3).
	Runs int
	// Seed is the base seed.
	Seed uint64
	// Workers bounds the sweep's worker pool (0 = GOMAXPROCS, 1 = the
	// exact sequential path); every workload × footprint × run cell is an
	// independent pair of simulations.
	Workers int
	// Progress, when non-nil, receives a live status line per cell.
	Progress *obs.Progress
}

func (o *Table4Options) applyDefaults() error {
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"graph500", "xsbench", "btree"}
	}
	if o.MemoryMiB == 0 {
		o.MemoryMiB = 16
	}
	if len(o.FootprintFracs) == 0 {
		o.FootprintFracs = PaperFootprintFracs
	}
	if o.MaxRefs == 0 {
		o.MaxRefs = 20_000_000
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if err := checkRepeats("runs", o.Runs); err != nil {
		return err
	}
	return checkFootprintFracs(o.FootprintFracs...)
}

// Table4Row is one row of Table 4: swap I/O (in thousands of pages, as the
// paper reports) for the Linux baseline and mosaic, plus the percentage
// difference (positive = mosaic swaps less).
type Table4Row struct {
	Workload     string
	FootprintMiB float64
	LinuxKPages  float64
	MosaicKPages float64
	DiffPercent  float64
}

// table4Cell addresses one workload × footprint × run pair of simulations,
// which share one reference stream.
type table4Cell struct {
	workload  string
	footprint uint64
	run       int
}

// Table4 reproduces Table 4: each workload runs at a ladder of footprints
// above memory size under the Linux-like vanilla system and under mosaic
// with Horizon LRU, both fed from one pass of the workload (swapIOs); the
// row reports total swap I/Os. Cells are independent simulations and fan out
// across Options.Workers goroutines; results fold back in submission
// order, so rows and their run averages match the sequential loop exactly.
func Table4(opt Table4Options) ([]Table4Row, error) {
	if err := opt.applyDefaults(); err != nil {
		return nil, err
	}
	frames := opt.MemoryMiB << 20 / PageSize
	var cells []table4Cell
	for _, name := range opt.Workloads {
		for _, frac := range opt.FootprintFracs {
			footprint := uint64(frac * float64(opt.MemoryMiB) * (1 << 20))
			for run := 0; run < opt.Runs; run++ {
				cells = append(cells, table4Cell{workload: name, footprint: footprint, run: run})
			}
		}
	}
	modes := []SystemConfig{{Mode: ModeVanilla}, {Mode: ModeMosaic}}
	ios, err := sweep.Run(context.Background(), cells,
		func(_ context.Context, _ int, c table4Cell) ([]uint64, error) {
			return swapIOs(modes, frames, c.workload, c.footprint, opt.Seed+uint64(c.run)*104729, opt.MaxRefs)
		},
		sweep.Options{Workers: opt.Workers, Progress: opt.Progress, Name: "table4"})
	if err != nil {
		return nil, err
	}
	var rows []Table4Row
	for i := 0; i < len(cells); i += opt.Runs {
		var linux, mosaic stats.Running
		for r := 0; r < opt.Runs; r++ {
			linux.Observe(float64(ios[i+r][0]))
			mosaic.Observe(float64(ios[i+r][1]))
		}
		rows = append(rows, Table4Row{
			Workload:     cells[i].workload,
			FootprintMiB: float64(cells[i].footprint) / (1 << 20),
			LinuxKPages:  linux.Mean() / 1000,
			MosaicKPages: mosaic.Mean() / 1000,
			DiffPercent:  stats.PercentChange(linux.Mean(), mosaic.Mean()),
		})
	}
	return rows, nil
}

// swapIOs runs one workload stream through one System per config and
// returns each System's total swap I/O, in config order. Every config gets
// frames and seed. The stream is generated once and each batch is handed
// to every System in turn: generators are open-loop (they never read
// simulator state), so each System sees exactly the references, in the
// same order, that a run of its own would feed it.
func swapIOs(cfgs []SystemConfig, frames int, workload string, footprint, seed, maxRefs uint64) ([]uint64, error) {
	sinks := make(fanOut, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Frames = frames
		cfg.Seed = seed
		sys, err := NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		sinks[i] = vmSink{sys, 1}
	}
	w, err := NewWorkload(workload, footprint, seed)
	if err != nil {
		return nil, err
	}
	RunBatch(w, sinks, maxRefs)
	ios := make([]uint64, len(sinks))
	for i, s := range sinks {
		ios[i] = s.sys.Device().TotalIO()
	}
	return ios, nil
}

// fanOut hands each batch to every System's sink, in order.
type fanOut []vmSink

func (f fanOut) ProcessBatch(b trace.Batch) {
	for _, s := range f {
		s.ProcessBatch(b)
	}
}
