package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mosaic/internal/lint/gate"
)

var fixturePins = []InlinePin{{File: "hot.go", Func: "(*counter).step", Why: "fixture driver loop"}}

func inlineFixtureSites(t *testing.T, variant string) (string, gate.Sites) {
	t.Helper()
	dir := gateFixture(t, "inlinegate", variant)
	sites, err := inlineGateFor(fixturePins, []string{"./..."}).Compile(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, sites
}

// TestInlineGateCatchesUninline pins the gate's reason for existing:
// against a baseline captured from the lean step method, growing a defer
// (which the inliner refuses outright) must flip the pinned verdict to
// "cannot inline" and fail.
func TestInlineGateCatchesUninline(t *testing.T) {
	_, lean := inlineFixtureSites(t, "lean")
	_, deferred := inlineFixtureSites(t, "deferred")

	if _, ok := lean["hot.go: (*counter).step: can inline"]; !ok {
		t.Fatalf("lean fixture's step is not inlinable; sites: %v", lean)
	}
	if diags := inlinePinDiags(fixturePins, lean, lean); len(diags) != 0 {
		t.Fatalf("healthy fixture fails its own pin check: %v", diags)
	}

	diags := inlinePinDiags(fixturePins, lean, deferred)
	if len(diags) != 1 {
		t.Fatalf("got %d pin diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "inlinegate" || d.ID != "ML010" {
		t.Errorf("diagnostic carries wrong identity: %q/%q", d.Analyzer, d.ID)
	}
	if !strings.Contains(d.Message, "no longer inlines") || !strings.Contains(d.Message, "(*counter).step") {
		t.Errorf("verdict-flip message wrong: %s", d.Message)
	}
}

// TestInlineGateReportsCostGrowth pins the headroom half of the contract:
// a pin that stays inlinable but got more expensive is a regression against
// the baselined cost, reported with both numbers.
func TestInlineGateReportsCostGrowth(t *testing.T) {
	key := "hot.go: (*counter).step: can inline"
	baseline := gate.Sites{key: {Count: 10}}
	current := gate.Sites{key: {Count: 42, Line: 7}}
	reg, removed := gate.Diff(baseline, current)
	if len(reg) != 1 || len(removed) != 0 {
		t.Fatalf("diff = %v / %v, want one cost-growth regression", reg, removed)
	}
	if r := reg[0]; !r.Known || r.Count != 42 || r.BaseCount != 10 {
		t.Errorf("regression = %+v, want known growth 10→42", r)
	}
	// The shrinking direction banks instead of failing.
	reg, removed = gate.Diff(current, baseline)
	if len(reg) != 0 || len(removed) != 1 {
		t.Errorf("cheaper pin should be bankable, got %v / %v", reg, removed)
	}
}

// TestInlineNormalizePrefersShape pins the generics subtlety: the compiler
// reports dictionary wrappers as "can inline" even when the go.shape
// function — the code that executes — is over budget. The shape verdict
// must win or the gate is blind to every generic pin.
func TestInlineNormalizePrefersShape(t *testing.T) {
	pins := []InlinePin{{File: "x.go", Func: "(*T).F", Why: "test"}}
	out := []byte(`# mod/x
x.go:10:6: can inline (*T[uint64]).F with cost 72 as: method(*T[uint64]) func() { return }
x.go:10:6: cannot inline (*T[go.shape.uint64]).F: function too complex: cost 117 exceeds budget 80
`)
	sites, err := normalizeInline(pins, out)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := sites["x.go: (*T).F: cannot inline"]; !ok || s.Count != 117 {
		t.Fatalf("shape verdict did not win: %v", sites)
	}
	if _, ok := sites["x.go: (*T).F: can inline"]; ok {
		t.Error("dictionary wrapper verdict leaked into the sites")
	}

	// Without a shape instantiation the plain verdict stands.
	out = []byte("x.go:10:6: can inline (*T).F with cost 30 as: method(*T) func() { return }\n")
	sites, err = normalizeInline(pins, out)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := sites["x.go: (*T).F: can inline"]; !ok || s.Count != 30 {
		t.Fatalf("plain verdict missing: %v", sites)
	}
}

// TestCanonicalFuncName pins instantiation stripping, including nested
// brackets inside shape struct types.
func TestCanonicalFuncName(t *testing.T) {
	cases := map[string]string{
		"(*set[go.shape.uint64]).lookup":                     "(*set).lookup",
		"(*Table[uint64,uint64]).Put":                        "(*Table).Put",
		"(*set[go.shape.struct { a [4]uint64; b int }]).get": "(*set).get",
		"(*Batcher).Access":                                  "(*Batcher).Access",
		"AblateTimestamps.func1":                             "AblateTimestamps.func1",
	}
	for in, want := range cases {
		if got := canonicalFuncName(in); got != want {
			t.Errorf("canonicalFuncName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestInlineGateMissingPin: a pin whose function vanished from the compile
// output must fail loudly rather than silently passing.
func TestInlineGateMissingPin(t *testing.T) {
	pins := []InlinePin{{File: "gone.go", Func: "vanished", Why: "test"}}
	diags := inlinePinDiags(pins, gate.Sites{}, gate.Sites{})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "not found") {
		t.Fatalf("missing pin not reported: %v", diags)
	}
}

// TestInlineTreeClean is the in-repo gate itself: every pinned hot function
// currently inlines and matches the checked-in baseline.
func TestInlineTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles five packages; skipped in -short")
	}
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	reg, _, err := RunInlineGate(root, filepath.Join(root, InlineBaselineFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range reg {
		t.Errorf("pinned-inline regression: %s", d)
	}
	// The baseline itself must carry a "can inline" verdict for every pin —
	// a baseline banked with a broken pin would mask the contract.
	data, err := os.ReadFile(filepath.Join(root, InlineBaselineFile))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := gate.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range InlinePins {
		if _, ok := baseline[pin.File+": "+pin.Func+": can inline"]; !ok {
			t.Errorf("pin %s: %s has no 'can inline' entry in %s", pin.File, pin.Func, InlineBaselineFile)
		}
	}
}
