// Command fig6 regenerates Figure 6 of the paper: TLB misses for the four
// workloads across TLB associativities (direct-mapped … fully associative)
// and mosaic arities (4 … 64), against the vanilla baseline.
//
// The paper's absolute counts come from multi-day gem5 full-system runs at
// 1–8 GiB footprints; this harness replays the same workload algorithms at
// footprints scaled to keep the footprint/TLB-reach ratios in the paper's
// regime (see EXPERIMENTS.md). Use -footprint/-maxrefs/-entries to rescale,
// and -maxrefs 0 for full workload runs.
//
// Usage:
//
//	fig6 [-workload all|graph500|btree|gups|xsbench] [-entries N]
//	     [-footprint MiB] [-maxrefs N] [-seed N] [-csv] [-describe]
//	     [-json] [-o path] [-sample N] [-cpuprofile path]
package main

import (
	"flag"
	"fmt"
	"os"

	"mosaic"
	"mosaic/internal/core"
	"mosaic/internal/obs"
	"mosaic/internal/results"
	"mosaic/internal/stats"
	"mosaic/internal/tlb"
	"mosaic/internal/workloads"
)

// defaultFootprintsMiB scales Table 2's workload footprints (1010, 2618,
// 8207, 1012 MiB against a 4 MiB-reach TLB) down to the harness TLB.
var defaultFootprintsMiB = map[string]uint64{
	"graph500": 32,
	"btree":    80,
	"gups":     128,
	"xsbench":  32,
}

func main() {
	workload := flag.String("workload", "all", "workload to run (all, graph500, btree, gups, xsbench)")
	entries := flag.Int("entries", 256, "TLB entries (the paper's Table 1a uses 1024; 256 keeps footprints simulation-sized)")
	footprint := flag.Uint64("footprint", 0, "workload footprint in MiB (0 = per-workload default)")
	maxRefs := flag.Uint64("maxrefs", 20_000_000, "references simulated per associativity point (0 = full run)")
	seed := flag.Uint64("seed", 1, "random seed")
	colt := flag.Bool("colt", false, "include a CoLT-4 coalescing baseline (§5.2)")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	describe := flag.Bool("describe", false, "print the simulated platform and workload descriptions (Tables 1a/2 analogues) and exit")
	bitsFlag := flag.Bool("bits", false, "print the §3.1 entry-storage/reach accounting and exit")
	sample := flag.Uint64("sample", 65536, "sampling cadence in references for the JSON time series (0 = no sampling)")
	drv := results.NewDriver("fig6", nil)
	flag.Parse()

	if *describe {
		printPlatform(*entries)
		printWorkloads(*seed)
		return
	}
	if *bitsFlag {
		printBits(*entries)
		return
	}
	if err := drv.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "fig6: %v\n", err)
		os.Exit(1)
	}
	defer drv.Close()

	names := workloads.Names()
	if *workload != "all" {
		names = []string{*workload}
	}
	out := results.New("fig6")
	out.Config = map[string]any{
		"workloads": names,
		"entries":   *entries,
		"footprint": *footprint,
		"maxrefs":   *maxRefs,
		"seed":      *seed,
		"colt":      *colt,
		"sample":    *sample,
	}
	// Per-workload sampled snapshots merge in workload order, so the
	// obs.* aggregate below is identical at any -workers setting.
	var merged obs.Snapshot
	for _, name := range names {
		fp := *footprint
		if fp == 0 {
			fp = defaultFootprintsMiB[name]
		}
		opts := mosaic.Figure6Options{
			Workload:       name,
			FootprintBytes: fp << 20,
			MaxRefs:        *maxRefs,
			TLBEntries:     *entries,
			Seed:           *seed,
			Workers:        drv.Workers,
			Progress:       drv.Progress(),
		}
		if *colt {
			opts.Coalesce = []int{4}
		}
		if drv.WantJSON() {
			opts.SampleEvery = *sample
		}
		res, err := mosaic.Figure6(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig6: %v\n", err)
			os.Exit(1)
		}
		merged = merged.Merge(res.Metrics)
		collect(out, res)
		render(res, fp, *csv)
	}
	if drv.WantJSON() && *sample > 0 {
		out.AddSnapshot("obs", merged)
	}
	if err := drv.Finish(out); err != nil {
		fmt.Fprintf(os.Stderr, "fig6: %v\n", err)
		os.Exit(1)
	}
}

// collect records one sub-figure into the JSON result: per-cell miss
// counts under fig6.<workload>.<design>.w<ways>.misses (the aggregates
// behind the rendered table), plus the sampled time series and events
// from the fully-associative point.
func collect(out *results.File, res mosaic.Figure6Result) {
	wl := results.Sanitize(res.Workload)
	out.SetMetric("fig6."+wl+".refs", float64(res.Refs))
	for _, c := range res.Cells {
		key := fmt.Sprintf("fig6.%s.%s.w%d.misses", wl, results.Sanitize(c.Label), c.Ways)
		out.SetMetric(key, float64(c.Stats.Misses))
	}
	out.AddSampler(wl, res.Series)
	out.AddEvents(res.Workload, res.Events)
}

func render(res mosaic.Figure6Result, footprintMiB uint64, csv bool) {
	// Columns per associativity, rows per design, as in the figure.
	wayLabels := map[int]string{}
	var ways []int
	var designs []string
	seenDesign := map[string]bool{}
	for _, c := range res.Cells {
		if _, ok := wayLabels[c.Ways]; !ok {
			ways = append(ways, c.Ways)
			switch c.Ways {
			case 1:
				wayLabels[c.Ways] = "Direct"
			default:
				wayLabels[c.Ways] = fmt.Sprintf("%d-Way", c.Ways)
			}
		}
		if !seenDesign[c.Label] {
			seenDesign[c.Label] = true
			designs = append(designs, c.Label)
		}
	}
	if len(ways) > 0 {
		wayLabels[ways[len(ways)-1]] = "Full"
	}
	headers := []string{"Design"}
	for _, w := range ways {
		headers = append(headers, wayLabels[w]+" misses")
	}
	headers = append(headers, "vs Vanilla (Full)")
	title := fmt.Sprintf("Figure 6 (%s): TLB misses, %d-entry TLB, %d MiB footprint, %d refs",
		res.Workload, resEntries(res), footprintMiB, res.Refs)
	tb := stats.NewTable(title, headers...)
	vanillaFull, _ := res.MissesFor(ways[len(ways)-1], "Vanilla")
	for _, d := range designs {
		row := []any{d}
		for _, w := range ways {
			m, _ := res.MissesFor(w, d)
			row = append(row, m)
		}
		mFull, _ := res.MissesFor(ways[len(ways)-1], d)
		if vanillaFull > 0 {
			row = append(row, fmt.Sprintf("%+.1f%%", 100*(1-float64(mFull)/float64(vanillaFull))))
		} else {
			row = append(row, "n/a")
		}
		tb.AddRow(row...)
	}
	if csv {
		fmt.Print(tb.CSV())
	} else {
		fmt.Println(tb.String())
	}
}

func resEntries(res mosaic.Figure6Result) int {
	if len(res.Cells) == 0 {
		return 0
	}
	// All cells share the entry count; any spec's geometry would do, but
	// Figure6Result carries stats only — infer from the largest ways value,
	// which equals the entry count for the fully-associative point.
	max := 0
	for _, c := range res.Cells {
		if c.Ways > max {
			max = c.Ways
		}
	}
	return max
}

func printPlatform(entries int) {
	tb := stats.NewTable("Simulated platform (Table 1a analogue)", "Component", "Configuration")
	tb.AddRow("CPU", "trace-driven, one data reference per access (TimingSimpleCPU analogue)")
	tb.AddRow("Address sizes", "36-bit VPNs and PFNs; 4 KiB base pages")
	tb.AddRow("L1 DTLB", fmt.Sprintf("unified, %d entries, associativity swept direct→full", entries))
	tb.AddRow("Mosaic geometry", "frontyard 56, backyard 8, d=6 choices, h=104, 7-bit CPFNs")
	tb.AddRow("L1d cache", "64 KiB 2-way (optional; -describe shows defaults)")
	tb.AddRow("L2 cache", "2 MiB 8-way")
	tb.AddRow("L3 cache", "16 MiB 16-way")
	tb.AddRow("OS", "internal/vm: demand paging, iceberg allocator, Horizon LRU")
	fmt.Println(tb.String())
}

func printWorkloads(seed uint64) {
	tb := stats.NewTable("Workloads (Table 2 analogue)", "Workload", "Description", "Default footprint")
	descr := map[string]string{
		"graph500": "Kronecker graph generation, CSR construction, BFS (seq-csr)",
		"btree":    "B+ tree index: bulk load + random point lookups",
		"gups":     "HPCC RandomAccess: uniform random read-modify-writes",
		"xsbench":  "Monte Carlo neutron transport cross-section lookups",
	}
	for _, name := range workloads.Names() {
		fp := defaultFootprintsMiB[name]
		w, err := mosaic.NewWorkload(name, fp<<20, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig6: %v\n", err)
			os.Exit(1)
		}
		tb.AddRow(name, descr[name], fmt.Sprintf("%d MiB (%d MiB allocated)", fp, w.FootprintBytes()>>20))
	}
	fmt.Println(tb.String())
}

func printBits(entries int) {
	g := tlb.Geometry{Entries: entries, Ways: 8}
	tb := stats.NewTable(
		fmt.Sprintf("Entry storage vs reach (§3.1 analysis, %d-entry 8-way TLB, 36-bit VPN/PFN)", entries),
		"Design", "Entry bits", "Payload KiB", "Reach (MiB)", "Reach bytes/bit", "Entry vs vanilla")
	for _, r := range tlb.BitsTable(g, []int{4, 8, 16, 32, 64}, core.DefaultGeometry, tlb.BitsConfig{}) {
		vs := "—"
		if r.Design != "Vanilla" {
			vs = fmt.Sprintf("%+.1f%%", r.VsVanillaPct)
		}
		tb.AddRow(r.Design, r.EntryBits,
			fmt.Sprintf("%.1f", r.TotalKiB),
			fmt.Sprintf("%.0f", r.ReachMiB),
			fmt.Sprintf("%.0f", r.ReachPerBit), vs)
	}
	fmt.Println(tb.String())
	fmt.Println("A Mosaic-4 entry is smaller than a vanilla entry (28-bit ToC vs 36-bit PFN)")
	fmt.Println("while covering 4x the memory; larger arities trade wider entries for reach.")
}
