package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mosaic/internal/lint/gate"
)

// escapeFixture copies testdata/hotalloc/<variant> into a throwaway module
// and returns its escape sites — a hermetic stand-in for the hot-path
// packages, so the gate's behaviour is testable without mutating the tree.
func escapeFixture(t *testing.T, variant string) (dir string, sites gate.Sites) {
	t.Helper()
	dir = t.TempDir()
	src, err := os.ReadFile(filepath.Join("testdata", "hotalloc", variant, "hot.go"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "hot.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module hot\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sites, err = EscapeSites(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	return dir, sites
}

// TestHotAllocGateCatchesClosure pins the gate's reason for existing:
// against a baseline captured from the concrete-sink variant of a counting
// hot path, switching to a per-call closure must fail with new heap-escape
// sites.
func TestHotAllocGateCatchesClosure(t *testing.T) {
	_, sinkSites := escapeFixture(t, "sink")
	closureDir, closureSites := escapeFixture(t, "closure")

	// Self-diff is clean: the sink variant passes its own baseline.
	if reg, removed := DiffEscapes(sinkSites, sinkSites); len(reg) != 0 || len(removed) != 0 {
		t.Fatalf("self-diff not clean: %v / %v", reg, removed)
	}

	reg, _ := DiffEscapes(sinkSites, closureSites)
	if len(reg) == 0 {
		t.Fatal("re-introducing the closure produced no escape regressions; the gate is blind")
	}
	var sawClosure bool
	for _, d := range reg {
		if strings.Contains(d.Message, "func literal escapes to heap") {
			sawClosure = true
		}
		if d.Analyzer != "hotalloc" || d.ID != "ML008" {
			t.Errorf("regression carries wrong identity: %q/%q", d.Analyzer, d.ID)
		}
		if d.Pos.Filename == "" || d.Pos.Line == 0 {
			t.Errorf("regression missing a position: %+v", d.Pos)
		}
	}
	if !sawClosure {
		t.Errorf("no 'func literal escapes to heap' regression among: %v", reg)
	}

	// End-to-end through the baseline file and RunHotAlloc.
	baseline := filepath.Join(t.TempDir(), "escapes.baseline")
	if err := os.WriteFile(baseline, FormatEscapeBaseline(sinkSites), 0o644); err != nil {
		t.Fatal(err)
	}
	reg2, _, err := RunHotAlloc(closureDir, baseline, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(reg2) != len(reg) {
		t.Fatalf("RunHotAlloc found %d regressions, DiffEscapes found %d", len(reg2), len(reg))
	}
}

// TestHotAllocImprovementsNeverFail checks the asymmetry: sites that
// disappear are reported as removable, not as findings.
func TestHotAllocImprovementsNeverFail(t *testing.T) {
	_, sinkSites := escapeFixture(t, "sink")
	_, closureSites := escapeFixture(t, "closure")
	// Closure sites as the (bloated) baseline; the sink tree improves on it.
	reg, removed := DiffEscapes(closureSites, sinkSites)
	for _, d := range reg {
		// The sink variant's own &ls/ls sites may legitimately be absent
		// from the closure baseline; only closure sites count here.
		if strings.Contains(d.Message, "func literal") {
			t.Errorf("improvement reported as regression: %s", d)
		}
	}
	if len(removed) == 0 {
		t.Error("expected removed sites when the baseline is bloated")
	}
}

// TestEscapeBaselineRoundTrip pins the baseline file format.
func TestEscapeBaselineRoundTrip(t *testing.T) {
	in := gate.Sites{
		"internal/tlb/set.go: g.Entries escapes to heap":       {Count: 2, Line: 175},
		"internal/cache/cache.go: &Level{...} escapes to heap": {Count: 1, Line: 40},
	}
	out, err := ParseEscapeBaseline(FormatEscapeBaseline(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost sites: %v", out)
	}
	for k, v := range in {
		if out[k].Count != v.Count {
			t.Errorf("site %q: count %d, want %d", k, out[k].Count, v.Count)
		}
	}
	if _, err := ParseEscapeBaseline([]byte("not-a-count\tx\n")); err == nil {
		t.Error("malformed baseline accepted")
	}
}

// TestHotAllocTreeClean is the in-repo gate itself: the current tree must
// match the checked-in baseline (check.sh enforces the same via the
// mosaiclint run).
func TestHotAllocTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles four packages; skipped in -short")
	}
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	reg, _, err := RunHotAlloc(root, filepath.Join(root, EscapeBaselineFile), HotPathPackages)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range reg {
		t.Errorf("hot-path escape regression: %s", d)
	}
}
