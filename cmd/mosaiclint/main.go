// Command mosaiclint runs the repository's static-analysis suite (see
// internal/lint) over the named packages.
//
// Usage:
//
//	go run ./cmd/mosaiclint [flags] [packages]
//
// Packages default to ./... — the whole module. Findings are printed one
// per line as file:line:col: analyzer: message.
//
// The exit status is 1 when there are findings, 2 on a load or usage
// error, 0 otherwise. The pre-PR gate (scripts/check.sh) runs mosaiclint
// alongside go vet.
package main

import (
	"flag"
	"fmt"
	"os"

	"mosaic/internal/lint"
	"mosaic/internal/obs"
)

func main() {
	os.Exit(run())
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func run() int {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()
	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer stop()
	}
	if *list {
		for _, an := range lint.Catalog() {
			fmt.Printf("%-6s %-12s %s\n", an.ID, an.Name, an.Doc)
		}
		return 0
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	passes, err := lint.Load(patterns)
	if err != nil {
		return fail(err)
	}
	diags := lint.RunAll(passes, lint.All())
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mosaiclint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
