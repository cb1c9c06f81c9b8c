package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/token"
	"regexp"
	"strconv"
	"strings"

	"mosaic/internal/lint/gate"
)

// HotAlloc is the escape-analysis budget gate: it drives the compiler's
// own escape analysis (`go build -gcflags=-m`) over the designated
// hot-path packages, normalizes the heap-escape sites it reports, and
// diffs them against the checked-in baseline
// (internal/lint/escapes.baseline). A site that is new — or a site whose
// count grew — fails the run: that is a fresh heap allocation on a path
// the simulator executes once per memory reference, such as a per-call
// closure capturing a counter that escapes to the heap.
//
// Sites are keyed as "file: message" with line numbers stripped, so
// vertical refactors do not churn the baseline; the per-site count still
// catches a second identical escape appearing in the same file. Sites that
// disappear never fail the gate — run mosaiclint -update-escapes to bank
// the improvement into the baseline.
//
// HotAlloc is tree-level (it shells out to the compiler rather than
// inspecting one pass), so its Run is nil and the driver invokes
// RunHotAlloc directly. The shared baseline-diff mechanics live in
// internal/lint/gate, which bcegate and inlinegate reuse.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	ID:   "ML008",
	Doc:  "heap-escape sites in the hot-path packages must not regress internal/lint/escapes.baseline",
}

// HotPathPackages are the build patterns the compiler gates drive with
// diagnostics enabled: the packages on the per-reference simulation path.
var HotPathPackages = []string{
	"./internal/memsim",
	"./internal/tlb",
	"./internal/cache",
	"./internal/iceberg",
	"./internal/trace",
	"./internal/workloads",
}

// EscapeBaselineFile is the checked-in baseline, relative to the module
// root.
const EscapeBaselineFile = "internal/lint/escapes.baseline"

// escapeLineRE matches one compiler diagnostic: file:line:col: message.
var escapeLineRE = regexp.MustCompile(`^(\S+\.go):(\d+):(\d+): (.+)$`)

// normalizeEscapes extracts heap-escape sites from `go build -gcflags=-m`
// output. Only allocation decisions count ("escapes to heap", "moved to
// heap"); inlining chatter and parameter-leak notes are ignored.
func normalizeEscapes(_ string, output []byte) (gate.Sites, error) {
	sites := make(gate.Sites)
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := escapeLineRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		key := m[1] + ": " + msg
		line, _ := strconv.Atoi(m[2])
		s := sites[key]
		s.Count++
		if s.Line == 0 || line < s.Line {
			s.Line = line
		}
		sites[key] = s
	}
	return sites, nil
}

// hotAllocGate builds the gate.Config for the escape budget over patterns.
func hotAllocGate(patterns []string) gate.Config {
	return gate.Config{
		Name:       HotAlloc.Name,
		BuildFlags: []string{"-gcflags=-m"},
		Patterns:   patterns,
		Normalize:  normalizeEscapes,
		Header: []string{
			"mosaiclint hotalloc escape baseline.",
			"One line per heap-escape site in the hot-path packages: count<TAB>file: message.",
			"Regenerate after a reviewed allocation change: go run ./cmd/mosaiclint -update-escapes",
		},
		UpdateFlag: "-update-escapes",
	}
}

// EscapeSites compiles patterns in dir with -gcflags=-m and returns the
// normalized heap-escape sites.
func EscapeSites(dir string, patterns []string) (gate.Sites, error) {
	return hotAllocGate(patterns).Compile(dir)
}

// FormatEscapeBaseline renders sites in the baseline file format.
func FormatEscapeBaseline(sites gate.Sites) []byte {
	return gate.Format(hotAllocGate(nil).Header, sites)
}

// ParseEscapeBaseline reads a baseline previously written by
// FormatEscapeBaseline.
func ParseEscapeBaseline(data []byte) (gate.Sites, error) {
	return gate.Parse(data)
}

// WriteEscapeBaseline regenerates the baseline file from the current tree.
func WriteEscapeBaseline(dir, path string, patterns []string) error {
	return hotAllocGate(patterns).Update(dir, path)
}

// escapeDiag renders one escape regression as a hotalloc diagnostic.
func escapeDiag(r gate.Regression) Diagnostic {
	file, msg, _ := strings.Cut(r.Key, ": ")
	detail := "not in baseline"
	if r.Known {
		detail = fmt.Sprintf("%d site(s), baseline has %d", r.Count, r.BaseCount)
	}
	return Diagnostic{
		Pos:      token.Position{Filename: file, Line: r.Line},
		Analyzer: HotAlloc.Name,
		ID:       HotAlloc.ID,
		Message: fmt.Sprintf("new heap escape on a hot path: %s (%s); keep the allocation off the per-reference path or update %s",
			msg, detail, EscapeBaselineFile),
	}
}

// DiffEscapes compares current sites against the baseline and returns one
// diagnostic per regression — a new site, or a site whose count grew —
// plus the list of baseline sites that no longer occur (improvements worth
// banking with -update-escapes; never a failure).
func DiffEscapes(baseline, current gate.Sites) (regressions []Diagnostic, removed []string) {
	reg, removed := gate.Diff(baseline, current)
	for _, r := range reg {
		regressions = append(regressions, escapeDiag(r))
	}
	return regressions, removed
}

// RunHotAlloc runs the full gate from the module root dir: compile the
// hot-path patterns, load the baseline at path, and diff. A missing
// baseline file is an error — the gate only means something against a
// reviewed reference point.
func RunHotAlloc(dir, path string, patterns []string) (regressions []Diagnostic, removed []string, err error) {
	res, err := hotAllocGate(patterns).Run(dir, path)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range res.Regressions {
		regressions = append(regressions, escapeDiag(r))
	}
	return regressions, res.Removed, nil
}
