package lint

import "testing"

// TestNarrowConv pins narrowconv: unguarded uint64 narrowing versus the
// accepted guards (mask, dominating comparison, early exit, prior index,
// bounded helper).
func TestNarrowConv(t *testing.T) {
	checkFixture(t, NarrowConv, "narrowconv", "mosaic/internal/fixture")
}

// TestNarrowConvScopedToInternal: the rule is scoped to the internal tree,
// like the other library-discipline rules.
func TestNarrowConvScopedToInternal(t *testing.T) {
	checkFixtureClean(t, NarrowConv, "narrowconv", "example.com/external")
}
