// Command mosaicstat inspects the machine-readable experiment outputs the
// cmd/* drivers write with -json (see internal/results).
//
// Usage:
//
//	mosaicstat show results/fig6.json           pretty-print one result
//	mosaicstat diff old.json new.json           per-metric percent deltas
//	mosaicstat diff -changed old.json new.json  only metrics that moved
//	mosaicstat bench BENCH_obs.json             pretty-print benchmark JSON
//	go test -bench . | mosaicstat bench -parse -o BENCH_obs.json
//	mosaicstat watch http://127.0.0.1:7077      live windowed rates (vmstat-style)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"mosaic/internal/results"
	"mosaic/internal/stats"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "show":
		err = show(args[1:])
	case "diff":
		err = diff(args[1:])
	case "bench":
		err = bench(args[1:])
	case "watch":
		err = watch(args[1:])
	default:
		// Bare file argument: treat as show for convenience.
		if _, statErr := os.Stat(args[0]); statErr == nil {
			err = show(args)
		} else {
			usage()
			os.Exit(2)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mosaicstat: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  mosaicstat show <result.json>
  mosaicstat diff [-changed] <a.json> <b.json>
  mosaicstat bench <bench.json>
  mosaicstat bench -parse [-o out.json]   (go test -bench output on stdin)
  mosaicstat watch [-interval 1s] [-count N] <mosaicd URL | results.json>
`)
}

func show(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("show needs exactly one result file")
	}
	f, err := results.Read(args[0])
	if err != nil {
		return err
	}
	fmt.Print(f.Format())
	return nil
}

func diff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	changed := fs.Bool("changed", false, "only print metrics whose values differ")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff needs exactly two result files")
	}
	a, err := results.Read(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := results.Read(fs.Arg(1))
	if err != nil {
		return err
	}
	rows := results.Diff(a, b)
	if *changed {
		kept := rows[:0]
		for _, r := range rows {
			if !r.InA || !r.InB || r.DeltaPct != 0 {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	fmt.Print(results.FormatDiff(fs.Arg(0), fs.Arg(1), rows))
	return nil
}

func bench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	parse := fs.Bool("parse", false, "parse `go test -bench` output from stdin into benchmark JSON")
	out := fs.String("o", "BENCH_obs.json", "output path for -parse")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parse {
		benches, err := results.ParseGoBench(os.Stdin)
		if err != nil {
			return err
		}
		if len(benches) == 0 {
			return fmt.Errorf("no benchmark lines on stdin")
		}
		data, err := json.MarshalIndent(results.BenchFile{
			SchemaVersion: results.SchemaVersion,
			Benchmarks:    benches,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", *out, len(benches))
		return nil
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("bench needs exactly one benchmark file")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var f results.BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	tb := stats.NewTable(fmt.Sprintf("%s (schema v%d)", fs.Arg(0), f.SchemaVersion),
		"Benchmark", "Iterations", "ns/op", "B/op", "allocs/op", "custom")
	for _, r := range f.Benchmarks {
		tb.AddRow(r.Name, r.N, fmt.Sprintf("%.2f", r.NsPerOp),
			fmt.Sprintf("%.0f", r.BytesPerOp), fmt.Sprintf("%.0f", r.AllocsPerOp),
			customMetrics(r))
	}
	fmt.Println(tb.String())
	return nil
}

// customMetrics renders a benchmark's ReportMetric columns, sorted by unit.
func customMetrics(r results.BenchResult) string {
	if len(r.Metrics) == 0 {
		return ""
	}
	units := make([]string, 0, len(r.Metrics))
	for u := range r.Metrics {
		units = append(units, u)
	}
	sort.Strings(units)
	parts := make([]string, 0, len(units))
	for _, u := range units {
		parts = append(parts, fmt.Sprintf("%.1f %s", r.Metrics[u], u))
	}
	return strings.Join(parts, ", ")
}
