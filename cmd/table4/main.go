// Command table4 regenerates Table 4 of the paper: swap I/O under
// increasing memory oversubscription, comparing the Linux-like baseline
// (two-list LRU + zone watermarks) with mosaic's Horizon LRU.
//
// Usage:
//
//	table4 [-memory MiB] [-runs N] [-maxrefs N] [-seed N] [-csv]
//	       [-json] [-o path] [-cpuprofile path]
package main

import (
	"flag"
	"fmt"
	"os"

	"mosaic"
	"mosaic/internal/results"
	"mosaic/internal/stats"
)

func main() {
	memory := flag.Int("memory", 16, "memory pool size in MiB (paper: 4096)")
	runs := flag.Int("runs", 2, "runs per cell (paper: 5)")
	maxRefs := flag.Uint64("maxrefs", 20_000_000, "reference cap per run (0 = full run)")
	seed := flag.Uint64("seed", 1, "base random seed")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	drv := results.NewDriver("table4", nil)
	flag.Parse()
	if err := drv.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "table4: %v\n", err)
		os.Exit(1)
	}
	defer drv.Close()

	rows, err := mosaic.Table4(mosaic.Table4Options{
		MemoryMiB: *memory,
		Runs:      *runs,
		MaxRefs:   *maxRefs,
		Seed:      *seed,
		Workers:   drv.Workers,
		Progress:  drv.Progress(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "table4: %v\n", err)
		os.Exit(1)
	}
	out := results.New("table4")
	out.Config = map[string]any{
		"memory_mib": *memory, "runs": *runs, "maxrefs": *maxRefs, "seed": *seed,
	}
	for _, r := range rows {
		key := fmt.Sprintf("table4.%s.fp%.0f.", results.Sanitize(r.Workload), r.FootprintMiB)
		out.SetMetric(key+"linux_kpages", r.LinuxKPages)
		out.SetMetric(key+"mosaic_kpages", r.MosaicKPages)
		out.SetMetric(key+"diff_pct", r.DiffPercent)
	}
	tb := stats.NewTable(
		fmt.Sprintf("Table 4: swap I/O while increasing workload size (%d MiB pool, %d runs)", *memory, *runs),
		"Workload", "Footprint (MiB)", "Linux (K pages)", "Mosaic (K pages)", "Difference (%)")
	for _, r := range rows {
		tb.AddRow(r.Workload,
			fmt.Sprintf("%.0f", r.FootprintMiB),
			fmt.Sprintf("%.2f", r.LinuxKPages),
			fmt.Sprintf("%.2f", r.MosaicKPages),
			fmt.Sprintf("%+.2f", r.DiffPercent))
	}
	if *csv {
		fmt.Print(tb.CSV())
	} else {
		fmt.Println(tb.String())
		fmt.Println("Positive difference = mosaic swaps less (the paper's green cells).")
	}
	if err := drv.Finish(out); err != nil {
		fmt.Fprintf(os.Stderr, "table4: %v\n", err)
		os.Exit(1)
	}
}
