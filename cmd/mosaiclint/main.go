// Command mosaiclint runs the repository's static-analysis suite (see
// internal/lint) over the named packages.
//
// Usage:
//
//	go run ./cmd/mosaiclint [flags] [packages]
//
// Packages default to ./... — the whole module. Findings are printed one
// per line as file:line:col: analyzer: message; -json and -sarif select
// the machine-readable encodings (stable ML… rule IDs, line-independent
// fingerprints), and -fix applies the suggested fixes of the mechanical
// analyzers before re-linting. -diff <git-ref> lints only the packages
// whose files changed since the ref (tracked changes plus untracked
// files).
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
	jsonOut := flag.Bool("json", false, "emit findings as mosaiclint JSON (schema v1) on stdout")
	sarifOut := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0 on stdout")
	fix := flag.Bool("fix", false, "apply suggested fixes, then re-lint and report what remains")
	diffRef := flag.String("diff", "", "lint only packages with files changed since this git ref")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()
	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer stop()
	}
	if *jsonOut && *sarifOut {
		return fail(fmt.Errorf("mosaiclint: -json and -sarif are mutually exclusive"))
	}
	if *list {
		for _, an := range lint.Catalog() {
			fmt.Printf("%-6s %-12s %s\n", an.ID, an.Name, an.Doc)
		}
		return 0
	}

	patterns := flag.Args()
	if *diffRef != "" {
		if len(patterns) > 0 {
			return fail(fmt.Errorf("mosaiclint: -diff and explicit packages are mutually exclusive"))
		}
		root, err := lint.ModuleRoot()
		if err != nil {
			return fail(err)
		}
		changed, err := lint.ChangedFiles(root, *diffRef)
		if err != nil {
			return fail(err)
		}
		patterns = lint.PackagePatterns(root, changed)
		if len(patterns) == 0 {
			fmt.Fprintf(os.Stderr, "mosaiclint: no Go packages changed since %s\n", *diffRef)
			return 0
		}
	} else if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := lintOnce(patterns)
	if err != nil {
		return fail(err)
	}
	if *fix {
		changed, applied, err := lint.ApplyFixes(diags)
		if err != nil {
			return fail(err)
		}
		if applied > 0 {
			fmt.Fprintf(os.Stderr, "mosaiclint: applied %d fix(es) across %d file(s)\n", applied, len(changed))
			// Re-lint so the report reflects the rewritten tree.
			if diags, err = lintOnce(patterns); err != nil {
				return fail(err)
			}
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	switch {
	case *jsonOut:
		if err := lint.WriteJSON(os.Stdout, cwd, diags); err != nil {
			return fail(err)
		}
	case *sarifOut:
		if err := lint.WriteSARIF(os.Stdout, cwd, diags); err != nil {
			return fail(err)
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mosaiclint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// lintOnce loads the patterns and runs the analyzer suite.
func lintOnce(patterns []string) ([]lint.Diagnostic, error) {
	passes, err := lint.Load(patterns)
	if err != nil {
		return nil, err
	}
	return lint.RunAll(passes, lint.All()), nil
}
