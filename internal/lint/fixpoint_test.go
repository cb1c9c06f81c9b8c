package lint

import (
	"strings"
	"testing"
)

// TestDetTaint pins the determinism-taint analyzer: direct sink flows,
// parameter-summary carriers, field-lattice flows, map-order taint, and the
// two sanctioned escapes (collect-then-sort, wall.* instruments).
func TestDetTaint(t *testing.T) {
	checkFixture(t, DetTaint, "dettaint", "mosaic/internal/fixture")
}

// TestGoLeak pins the goroutine-cancellation analyzer, including spins
// reached through named calls at depth.
func TestGoLeak(t *testing.T) {
	checkFixture(t, GoLeak, "goleak", "mosaic/internal/fixture")
}

// TestDetTaintSkipsExternalPackages: dettaint and goleak are scoped to the
// module's own code (internal tree plus the root package).
func TestDetTaintSkipsExternalPackages(t *testing.T) {
	checkFixtureClean(t, DetTaint, "dettaint", "example.com/external")
	checkFixtureClean(t, GoLeak, "goleak", "example.com/external")
}

// nodeByName finds the unique program node whose id ends in suffix.
func nodeByName(t *testing.T, pr *Program, suffix string) *progFunc {
	t.Helper()
	var found *progFunc
	for _, pf := range pr.funcs {
		if strings.HasSuffix(pf.id, suffix) {
			if found != nil {
				t.Fatalf("id suffix %s is ambiguous (%s, %s)", suffix, found.id, pf.id)
			}
			found = pf
		}
	}
	if found == nil {
		t.Fatalf("no program node with id suffix %s", suffix)
	}
	return found
}

// TestFixpointSelfRecursion: a self-recursive function terminates and lands
// on sound summaries — the unproven bounded cycle stays false, a masked
// wrapper above it is bounded, and a self-recursive spin settles true.
func TestFixpointSelfRecursion(t *testing.T) {
	p := loadFixture(t, "recurse", "mosaic/internal/fixture")
	if s := summaryFor(t, p, "maskedRec"); s.bounded {
		t.Error("maskedRec proved bounded through its own unproven cycle")
	}
	if s := summaryFor(t, p, "maskedWrap"); !s.bounded {
		t.Error("maskedWrap (masked at the boundary) not bounded")
	}
	if s := summaryFor(t, p, "spinRec"); !s.spins {
		t.Error("spinRec not summarised as spinning")
	}
	rec := nodeByName(t, p.flow(), ".maskedRec")
	if len(p.flow().sccs[rec.scc]) != 1 {
		t.Errorf("maskedRec SCC has %d members, want 1 (self-loop)", len(p.flow().sccs[rec.scc]))
	}
}

// TestFixpointMutualRecursion: a two-function cycle converges jointly — the
// spin fact propagates around the cycle, and both members share one SCC.
func TestFixpointMutualRecursion(t *testing.T) {
	p := loadFixture(t, "mutrec", "mosaic/internal/fixture")
	pr := p.flow()
	a, b := nodeByName(t, pr, ".spinA"), nodeByName(t, pr, ".spinB")
	if a.scc != b.scc {
		t.Errorf("spinA (scc %d) and spinB (scc %d) not condensed together", a.scc, b.scc)
	}
	if !a.sum.spins || !b.sum.spins {
		t.Errorf("spins did not propagate around the cycle: spinA=%v spinB=%v", a.sum.spins, b.sum.spins)
	}
	even, odd := nodeByName(t, pr, ".evenStep"), nodeByName(t, pr, ".oddStep")
	if even.scc != odd.scc {
		t.Error("evenStep/oddStep not in one SCC")
	}
	if even.sum.bounded || odd.sum.bounded {
		t.Error("bounded wrongly proven around an unproven mutual cycle")
	}
}

// TestFixpointInterfaceCycle: a cycle closed purely through interface
// dispatch still condenses — the method-set edges make both concrete step
// methods one SCC.
func TestFixpointInterfaceCycle(t *testing.T) {
	p := loadFixture(t, "ifacecycle", "mosaic/internal/fixture")
	pr := p.flow()
	a, b := nodeByName(t, pr, "(*alpha).step"), nodeByName(t, pr, "(*beta).step")
	if a.scc != b.scc {
		t.Errorf("dispatch cycle not condensed: (*alpha).step scc %d, (*beta).step scc %d", a.scc, b.scc)
	}
	hasDispatch := false
	for _, e := range a.out {
		if e.kind == edgeDispatch {
			hasDispatch = true
		}
	}
	if !hasDispatch {
		t.Error("(*alpha).step has no dispatch edge; interface fanout missing")
	}
}

// TestFixpointTaintCycle: the taint phase iterates a cyclic SCC to a joint
// fixpoint — the metric sink reached directly by relayEven becomes a
// parameter sink of relayOdd, which only reaches it around the cycle.
func TestFixpointTaintCycle(t *testing.T) {
	p := loadFixture(t, "dettaint", "mosaic/internal/fixture")
	pr := p.flow()
	even, odd := nodeByName(t, pr, ".relayEven"), nodeByName(t, pr, ".relayOdd")
	if even.scc != odd.scc {
		t.Fatalf("relayEven (scc %d) and relayOdd (scc %d) not condensed together", even.scc, odd.scc)
	}
	for _, pf := range []*progFunc{even, odd} {
		if len(pf.sum.paramSinks) == 0 {
			t.Errorf("%s: no parameter sink summarised; the carrier fact did not cross the cycle", pf.id)
		}
	}
}

// TestSummaryRanksBottomUp: every edge points into the same rank or a lower
// one — the levelization the per-rank parallel summary sweep depends on.
func TestSummaryRanksBottomUp(t *testing.T) {
	p := loadFixture(t, "lockflow", "mosaic/internal/fixture")
	pr := p.flow()
	for _, pf := range pr.funcs {
		for _, e := range pf.out {
			if e.to.scc != pf.scc && e.to.rank >= pf.rank {
				t.Errorf("edge %s -> %s climbs ranks (%d -> %d)", pf.id, e.to.id, pf.rank, e.to.rank)
			}
		}
	}
}
