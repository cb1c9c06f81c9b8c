package lint

import (
	"strings"
	"testing"
)

func TestNoPanic(t *testing.T) {
	checkFixture(t, NoPanic, "nopanic", "mosaic/internal/fixture")
}

// TestNoPanicScopedToInternal: main packages are outside the library
// discipline.
func TestNoPanicScopedToInternal(t *testing.T) {
	checkFixtureClean(t, NoPanic, "nopanic", "mosaic/cmd/fixture")
}

// TestMalformedDirective: an ignore directive without a reason, or naming
// an analyzer that does not exist, is reported and does not suppress the
// finding it covers.
func TestMalformedDirective(t *testing.T) {
	checkFixture(t, NoPanic, "directive", "mosaic/internal/fixture")
	pass := loadFixture(t, "directive", "mosaic/internal/fixture")
	want := []string{"nopanic directive needs a reason", "nopanik names no known analyzer"}
	if len(pass.badDirectives) != len(want) {
		t.Fatalf("got %d bad-directive findings, want %d: %v", len(pass.badDirectives), len(want), pass.badDirectives)
	}
	for i, w := range want {
		if msg := pass.badDirectives[i].Message; !strings.Contains(msg, w) {
			t.Errorf("bad-directive %d message %q, want it to contain %q", i, msg, w)
		}
	}
}
