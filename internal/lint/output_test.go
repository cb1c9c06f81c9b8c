package lint

import (
	"bytes"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goldenDiags produces a deterministic diagnostic set covering the output
// surface: plain findings from the per-package analyzers, fix-carrying
// findings from detrand and errdrop, and malformed-directive findings, all
// position-sorted by RunAll.
func goldenDiags(t *testing.T) []Diagnostic {
	t.Helper()
	passes := []*Pass{
		loadFixture(t, "directive", "mosaic/internal/directive"),
		loadFixture(t, "fixapply", "mosaic/internal/fixapply"),
		loadFixture(t, "narrowconv", "mosaic/internal/narrowconv"),
	}
	diags := RunAll(passes, All())
	if len(diags) == 0 {
		t.Fatal("golden fixture set produced no diagnostics")
	}
	return diags
}

// checkGolden compares got against the named golden file, rewriting it under
// -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (rerun with -update-golden if intended):\n--- got ---\n%s", name, got)
	}
}

// TestGoldenJSON pins the -json report shape byte for byte: schema version,
// field names, fingerprints, and fix encoding all live in the golden file,
// so any schema drift shows up as a diff reviewers must approve.
func TestGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "", goldenDiags(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"schema_version": 1`) {
		t.Errorf("report missing schema_version 1:\n%s", out)
	}
	if !strings.Contains(out, `"fix"`) {
		t.Errorf("no fix-carrying finding in the golden set; fix encoding is unpinned")
	}
	checkGolden(t, "golden.json", buf.Bytes())
}

// TestGoldenSARIF pins the SARIF 2.1.0 encoding, including the full rule
// catalogue (every analyzer appears even without findings) and the
// partial-fingerprint key.
func TestGoldenSARIF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "", goldenDiags(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, an := range Catalog() {
		if !strings.Contains(out, `"id": "`+an.ID+`"`) {
			t.Errorf("rule %s (%s) missing from SARIF rules", an.ID, an.Name)
		}
	}
	if !strings.Contains(out, "mosaiclintFingerprint/v1") {
		t.Error("partial fingerprint key missing")
	}
	checkGolden(t, "golden.sarif", buf.Bytes())
}

// TestFingerprintLineIndependent proves the identity property end to end:
// two findings that differ only in position — the same analyzer reporting
// the same message in the same file after code above it moved — encode with
// identical fingerprints in both machine formats, so trackers keyed on the
// fingerprint follow the finding across the move.
func TestFingerprintLineIndependent(t *testing.T) {
	mk := func(line, col int) Diagnostic {
		return Diagnostic{
			Pos:      token.Position{Filename: "internal/tlb/set.go", Line: line, Column: col},
			Analyzer: "narrowconv",
			ID:       "ML013",
			Message:  "uint64 narrowed to int without a bounds guard",
		}
	}
	for _, write := range []struct {
		name string
		fn   func(w io.Writer, root string, diags []Diagnostic) error
	}{{"json", WriteJSON}, {"sarif", WriteSARIF}} {
		var buf bytes.Buffer
		if err := write.fn(&buf, "", []Diagnostic{mk(17, 2), mk(402, 9)}); err != nil {
			t.Fatal(err)
		}
		prints := regexp.MustCompile(`[0-9a-f]{16}`).FindAllString(buf.String(), -1)
		if len(prints) != 2 {
			t.Fatalf("%s: found %d fingerprints, want 2", write.name, len(prints))
		}
		if prints[0] != prints[1] {
			t.Errorf("%s: fingerprints differ across a pure line move: %s vs %s",
				write.name, prints[0], prints[1])
		}
	}
	// The converse: a different message is a different finding.
	other := mk(17, 2)
	other.Message = "different"
	if fingerprint(other.Analyzer, other.Pos.Filename, other.Message) ==
		fingerprint("narrowconv", "internal/tlb/set.go", mk(17, 2).Message) {
		t.Error("distinct messages collided")
	}
}

// TestFingerprintStability pins the fingerprint function itself: it must
// stay line-independent and byte-stable across releases, or external
// trackers lose finding identity.
func TestFingerprintStability(t *testing.T) {
	got := fingerprint("detrand", "internal/core/sim.go", "call to rand.Intn")
	const want = "1a45c77582388e83"
	if got != want {
		t.Errorf("fingerprint changed: got %s, want %s — this breaks finding identity downstream", got, want)
	}
	if fingerprint("a", "b", "c") == fingerprint("a", "b|", "c") {
		t.Error("separator collision: field boundaries not hashed")
	}
}
