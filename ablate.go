package mosaic

import (
	"context"
	"fmt"
	"slices"

	"mosaic/internal/core"
	"mosaic/internal/stats"
	"mosaic/internal/sweep"
	"mosaic/internal/tabhash"
	"mosaic/internal/xxhash"
)

// The ablations quantify the design choices DESIGN.md calls out: how many
// backyard choices are needed, how the frontyard/backyard split affects δ,
// what the horizon/ghost mechanism buys over naive candidate-LRU eviction,
// and how much hash quality matters.

// AblateRow is one row of a single-parameter ablation sweep.
type AblateRow struct {
	// Label names the swept setting ("d=6", "f=56/b=8", "xxhash", …).
	Label string
	// Associativity is h for the swept geometry.
	Associativity int
	// CPFNBits is the compressed-frame-number width h implies.
	CPFNBits int
	// FirstConflict is the mean utilization at the first conflict.
	FirstConflict float64
	// FirstConflictSD is its standard deviation across trials.
	FirstConflictSD float64
}

// fillToConflict creates a mosaic system and touches distinct pages until
// the first associativity conflict, returning the utilization there.
func fillToConflict(frames int, geom Geometry, hash core.PlacementHash, seed uint64) (float64, error) {
	sys, err := NewSystem(SystemConfig{
		Frames:   frames,
		Mode:     ModeMosaic,
		Geometry: geom,
		Hash:     hash,
		Seed:     seed,
	})
	if err != nil {
		return 0, err
	}
	for vpn := VPN(0); ; vpn++ {
		sys.Touch(1, vpn, true)
		if u, saw := sys.FirstConflictUtilization(); saw {
			return u, nil
		}
		if int(vpn) > 2*frames {
			return 0, fmt.Errorf("mosaic: no conflict after filling 2× memory")
		}
	}
}

// geomCase is one geometry/hash setting of a utilization ablation.
type geomCase struct {
	label string
	geom  Geometry
	hash  func(seed uint64) core.PlacementHash
}

// sweepGeometries measures first-conflict utilization for every case,
// fanning the flattened case × trial grid across workers goroutines (each
// trial is an independent fill from its own seed) and folding trials back
// per case in trial order, so means and stddevs match the sequential loop
// bit for bit.
func sweepGeometries(cases []geomCase, frames, trials int, seed uint64, workers int) ([]AblateRow, error) {
	if err := checkRepeats("trials", trials); err != nil {
		return nil, err
	}
	type cell struct{ c, t int }
	cells := make([]cell, 0, len(cases)*trials)
	for c := range cases {
		for t := 0; t < trials; t++ {
			cells = append(cells, cell{c, t})
		}
	}
	us, err := sweep.Run(context.Background(), cells,
		func(_ context.Context, _ int, p cell) (float64, error) {
			cs := cases[p.c]
			s := seed + uint64(p.t)*6151
			u, err := fillToConflict(frames, cs.geom, cs.hash(s), s)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", cs.label, err)
			}
			return u, nil
		},
		sweep.Options{Workers: workers, Name: "ablate"})
	if err != nil {
		return nil, err
	}
	rows := make([]AblateRow, len(cases))
	for ci, cs := range cases {
		var r stats.Running
		for t := 0; t < trials; t++ {
			r.Observe(us[ci*trials+t])
		}
		rows[ci] = AblateRow{
			Label:           cs.label,
			Associativity:   cs.geom.Associativity(),
			CPFNBits:        cs.geom.CPFNBits(),
			FirstConflict:   r.Mean(),
			FirstConflictSD: r.Stddev(),
		}
	}
	return rows, nil
}

func xxPlacement(seed uint64) core.PlacementHash { return xxhash.NewPlacement(seed) }

// AblateChoices sweeps the number of backyard choices d, holding the
// 56/8 split fixed: how much does the power of d choices buy in
// first-conflict utilization, and what does it cost in CPFN bits?
// workers bounds the trial fan-out (0 = GOMAXPROCS, 1 = sequential).
func AblateChoices(ds []int, frames, trials int, seed uint64, workers int) ([]AblateRow, error) {
	if len(ds) == 0 {
		ds = []int{1, 2, 4, 6, 8}
	}
	if frames == 0 {
		frames = 1 << 15
	}
	if trials == 0 {
		trials = 5
	}
	cases := make([]geomCase, len(ds))
	for i, d := range ds {
		cases[i] = geomCase{
			label: fmt.Sprintf("d=%d", d),
			geom:  Geometry{FrontyardSize: 56, BackyardSize: 8, Choices: d},
			hash:  xxPlacement,
		}
	}
	return sweepGeometries(cases, frames, trials, seed, workers)
}

// AblateSplit sweeps the frontyard/backyard split of the 64-frame bucket
// with d = 6 choices fixed. workers bounds the trial fan-out.
func AblateSplit(splits [][2]int, frames, trials int, seed uint64, workers int) ([]AblateRow, error) {
	if len(splits) == 0 {
		splits = [][2]int{{62, 2}, {60, 4}, {56, 8}, {48, 16}, {32, 32}}
	}
	if frames == 0 {
		frames = 1 << 15
	}
	if trials == 0 {
		trials = 5
	}
	cases := make([]geomCase, len(splits))
	for i, fb := range splits {
		cases[i] = geomCase{
			label: fmt.Sprintf("f=%d/b=%d", fb[0], fb[1]),
			geom:  Geometry{FrontyardSize: fb[0], BackyardSize: fb[1], Choices: 6},
			hash:  xxPlacement,
		}
	}
	return sweepGeometries(cases, frames, trials, seed, workers)
}

// AblateHash compares placement-hash families at the default geometry:
// xxHash (the Linux prototype's), tabulation hashing with probing (the
// hardware design), and a deliberately weak hash, which shows why hash
// quality is load-bearing for the 98% bound. workers bounds the trial
// fan-out.
func AblateHash(frames, trials int, seed uint64, workers int) ([]AblateRow, error) {
	if frames == 0 {
		frames = 1 << 15
	}
	if trials == 0 {
		trials = 5
	}
	cases := []geomCase{
		{"xxhash", DefaultGeometry, xxPlacement},
		{"tabulation", DefaultGeometry, func(seed uint64) core.PlacementHash { return tabhash.NewPlacement(seed) }},
		{"weak-clustering", DefaultGeometry, func(seed uint64) core.PlacementHash {
			return core.PlacementHashFunc(func(asid ASID, vpn VPN, fn int) uint64 {
				// No mixing at all: runs of 256 consecutive VPNs share one
				// frontyard bucket and one set of backyard buckets, so a
				// sequential fill overflows its h candidate slots almost
				// immediately — the failure mode a real hash must prevent.
				return uint64(vpn)>>8 + uint64(fn)*8191 + seed + uint64(asid)
			})
		}},
	}
	return sweepGeometries(cases, frames, trials, seed, workers)
}

// TimestampRow is one row of the timestamp-fidelity ablation: swap I/O of
// mosaic under exact timestamps vs the prototype's scan-daemon emulation.
type TimestampRow struct {
	// Label names the regime ("exact" or "scan@<interval>").
	Label string
	// MosaicKIO is mosaic's swap I/O in thousands of pages.
	MosaicKIO float64
	// VsLinuxPct is the percent reduction vs the Linux baseline at the
	// same footprint (positive = mosaic swaps less).
	VsLinuxPct float64
}

// AblateTimestamps quantifies the fidelity gap between exact access
// timestamps (a real mosaic system, and this repo's default) and the
// paper's Linux-prototype emulation (§3.2: access-bit scans + hot-page
// sampling). Coarser timestamps degrade Horizon LRU's victim choices, so
// the margin over Linux shrinks as the scan interval grows — evidence for
// why the paper argues real hardware should store timestamps. workers
// bounds the fan-out: the Linux baseline and the scan intervals split into
// that many groups, each simulated from one pass of the stream.
func AblateTimestamps(workload string, memoryMiB int, footprintFrac float64, intervals []uint64, maxRefs, seed uint64, workers int) ([]TimestampRow, error) {
	if workload == "" {
		workload = "graph500"
	}
	if memoryMiB == 0 {
		memoryMiB = 16
	}
	if footprintFrac == 0 {
		footprintFrac = 1.20
	}
	if len(intervals) == 0 {
		intervals = []uint64{0, 1024, 16384, 262144}
	}
	if maxRefs == 0 {
		maxRefs = 15_000_000
	}
	if err := checkFootprintFracs(footprintFrac); err != nil {
		return nil, err
	}
	frames := memoryMiB << 20 / PageSize
	footprint := uint64(footprintFrac * float64(memoryMiB) * (1 << 20))

	// Config 0 is the Linux baseline; configs 1..n are the scan intervals.
	// The configs split into min(workers, n+1) contiguous groups, each fed
	// by one pass of the same seeded stream.
	cfgs := make([]SystemConfig, 0, len(intervals)+1)
	cfgs = append(cfgs, SystemConfig{Mode: ModeVanilla})
	for _, iv := range intervals {
		cfgs = append(cfgs, SystemConfig{Mode: ModeMosaic, ScanInterval: iv})
	}
	groups := contiguousGroups(cfgs, sweep.Options{Workers: workers}.PoolSize(len(cfgs)))
	groupIOs, err := sweep.Run(context.Background(), groups,
		func(_ context.Context, _ int, g []SystemConfig) ([]uint64, error) {
			return swapIOs(g, frames, workload, footprint, seed, maxRefs)
		},
		sweep.Options{Workers: workers, Name: "ablate timestamps"})
	if err != nil {
		return nil, err
	}
	ios := slices.Concat(groupIOs...)
	linuxIO := ios[0]
	rows := make([]TimestampRow, 0, len(intervals))
	for i, iv := range intervals {
		io := ios[i+1]
		label := "exact"
		if iv > 0 {
			label = fmt.Sprintf("scan@%d", iv)
		}
		rows = append(rows, TimestampRow{
			Label:      label,
			MosaicKIO:  float64(io) / 1000,
			VsLinuxPct: stats.PercentChange(float64(linuxIO), float64(io)),
		})
	}
	return rows, nil
}

// EvictionRow is one row of the eviction ablation: swap I/O under three
// eviction regimes at one footprint.
type EvictionRow struct {
	FootprintMiB   float64
	HorizonKIO     float64 // mosaic with Horizon LRU (§2.4)
	NaiveKIO       float64 // mosaic, conflict-LRU only, no ghosts
	LinuxKIO       float64 // vanilla baseline
	HorizonVsNaive float64 // % reduction of horizon vs naive
}

// AblateEviction quantifies what Horizon LRU's ghost mechanism buys over
// the naive candidate-LRU scheme the paper argues against (§2.4), using
// the paper's swapping methodology at a ladder of footprints. workers
// bounds the fan-out over footprints; each footprint's stream feeds all
// three regimes in one pass.
func AblateEviction(workload string, memoryMiB int, fracs []float64, maxRefs, seed uint64, workers int) ([]EvictionRow, error) {
	if workload == "" {
		workload = "graph500"
	}
	if memoryMiB == 0 {
		memoryMiB = 32
	}
	if len(fracs) == 0 {
		fracs = []float64{1.08, 1.20, 1.33, 1.45}
	}
	if maxRefs == 0 {
		maxRefs = 10_000_000
	}
	if err := checkFootprintFracs(fracs...); err != nil {
		return nil, err
	}
	frames := memoryMiB << 20 / PageSize
	// One point per footprint; its stream feeds the three regimes in the
	// order horizon, naive, linux.
	regimes := []SystemConfig{
		{Mode: ModeMosaic},
		{Mode: ModeMosaic, DisableHorizon: true},
		{Mode: ModeVanilla},
	}
	footprints := make([]uint64, len(fracs))
	for i, frac := range fracs {
		footprints[i] = uint64(frac * float64(memoryMiB) * (1 << 20))
	}
	ios, err := sweep.Run(context.Background(), footprints,
		func(_ context.Context, _ int, footprint uint64) ([]uint64, error) {
			return swapIOs(regimes, frames, workload, footprint, seed, maxRefs)
		},
		sweep.Options{Workers: workers, Name: "ablate eviction"})
	if err != nil {
		return nil, err
	}
	rows := make([]EvictionRow, 0, len(fracs))
	for i, footprint := range footprints {
		horizon, naive, linux := ios[i][0], ios[i][1], ios[i][2]
		rows = append(rows, EvictionRow{
			FootprintMiB:   float64(footprint) / (1 << 20),
			HorizonKIO:     float64(horizon) / 1000,
			NaiveKIO:       float64(naive) / 1000,
			LinuxKIO:       float64(linux) / 1000,
			HorizonVsNaive: stats.PercentChange(float64(naive), float64(horizon)),
		})
	}
	return rows, nil
}
