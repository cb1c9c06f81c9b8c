package mosaic

import (
	"context"

	"mosaic/internal/obs"
	"mosaic/internal/stats"
	"mosaic/internal/sweep"
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

func (o *Table4Options) applyDefaults() {
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

// table4Cell addresses one workload × footprint × run pair of simulations.
type table4Cell struct {
	workload  string
	footprint uint64
	run       int
}

// table4IO is one cell's swap I/O under both systems.
type table4IO struct {
	linux, mosaic uint64
}

// Table4 reproduces Table 4: each workload runs at a ladder of footprints
// above memory size, once under the Linux-like vanilla system and once
// under mosaic with Horizon LRU, with identical reference streams; the row
// reports total swap I/Os. Cells are independent simulations and fan out
// across Options.Workers goroutines; results fold back in submission
// order, so rows and their run averages match the sequential loop exactly.
func Table4(opt Table4Options) ([]Table4Row, error) {
	opt.applyDefaults()
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
	ios, err := sweep.Run(context.Background(), cells,
		func(_ context.Context, _ int, c table4Cell) (table4IO, error) {
			seed := opt.Seed + uint64(c.run)*104729
			lio, err := swapIO(ModeVanilla, frames, c.workload, c.footprint, seed, opt.MaxRefs)
			if err != nil {
				return table4IO{}, err
			}
			mio, err := swapIO(ModeMosaic, frames, c.workload, c.footprint, seed, opt.MaxRefs)
			if err != nil {
				return table4IO{}, err
			}
			return table4IO{linux: lio, mosaic: mio}, nil
		},
		sweep.Options{Workers: opt.Workers, Progress: opt.Progress, Name: "table4"})
	if err != nil {
		return nil, err
	}
	var rows []Table4Row
	for i := 0; i < len(cells); i += opt.Runs {
		var linux, mosaic stats.Running
		for r := 0; r < opt.Runs; r++ {
			linux.Observe(float64(ios[i+r].linux))
			mosaic.Observe(float64(ios[i+r].mosaic))
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

// swapIO runs one (mode, workload, footprint) cell and returns the total
// swap I/O count.
func swapIO(mode Mode, frames int, workload string, footprint, seed, maxRefs uint64) (uint64, error) {
	sys, err := NewSystem(SystemConfig{Frames: frames, Mode: mode, Seed: seed})
	if err != nil {
		return 0, err
	}
	w, err := NewWorkload(workload, footprint, seed)
	if err != nil {
		return 0, err
	}
	RunBatch(w, vmSink{sys, 1}, maxRefs)
	return sys.Device().TotalIO(), nil
}
