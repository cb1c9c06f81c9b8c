package swap

import (
	"math/rand"
	"testing"

	"mosaic/internal/alloc"
	"mosaic/internal/core"
	"mosaic/internal/obs"
)

func TestDevice(t *testing.T) {
	r := obs.NewRegistry()
	d := NewDevice(r)
	if d.TotalIO() != 0 {
		t.Errorf("fresh device TotalIO = %d", d.TotalIO())
	}
	d.PageOut()
	d.PageOut()
	d.PageIn()
	if d.PageOuts() != 2 || d.PageIns() != 1 || d.TotalIO() != 3 {
		t.Errorf("outs=%d ins=%d total=%d, want 2, 1, 3", d.PageOuts(), d.PageIns(), d.TotalIO())
	}
	if out, in := r.CounterValue("swap.out"), r.CounterValue("swap.in"); out != 2 || in != 1 {
		t.Errorf("registry swap.out=%d swap.in=%d, want 2 and 1", out, in)
	}
}

func TestHorizonLRU(t *testing.T) {
	h := NewHorizonLRU()
	if h.Horizon() != 0 {
		t.Error("fresh horizon should be zero")
	}
	h.NoteEviction(10)
	h.NoteEviction(5) // must not regress
	if h.Horizon() != 10 {
		t.Errorf("Horizon = %d, want 10", h.Horizon())
	}
	h.NoteEviction(30)
	if h.Horizon() != 30 {
		t.Errorf("Horizon = %d, want 30", h.Horizon())
	}
}

func TestHorizonPickVictim(t *testing.T) {
	h := NewHorizonLRU()
	cands := []alloc.Candidate{
		{PFN: 1, Used: true, LastAccess: 50},
		{PFN: 2, Used: false},
		{PFN: 3, Used: true, LastAccess: 7},
		{PFN: 4, Used: true, LastAccess: 99},
	}
	v, ok := h.PickVictim(cands)
	if !ok || v.PFN != 3 {
		t.Errorf("victim = %+v ok=%v, want PFN 3", v, ok)
	}
	if _, ok := h.PickVictim([]alloc.Candidate{{Used: false}}); ok {
		t.Error("victim found among unoccupied candidates")
	}
}

func TestTwoListPromotion(t *testing.T) {
	p := NewTwoListLRU(16)
	p.OnFault(0)
	p.OnFault(1)
	if p.ActiveLen() != 0 || p.InactiveLen() != 2 {
		t.Fatalf("after faults: active=%d inactive=%d", p.ActiveLen(), p.InactiveLen())
	}
	// One access sets the referenced bit but does not promote.
	p.OnAccess(0)
	if p.ActiveLen() != 0 {
		t.Error("single access promoted a page")
	}
	// Second access promotes.
	p.OnAccess(0)
	if p.ActiveLen() != 1 || p.InactiveLen() != 1 {
		t.Errorf("after promotion: active=%d inactive=%d", p.ActiveLen(), p.InactiveLen())
	}
}

func TestTwoListVictimPrefersColdPages(t *testing.T) {
	p := NewTwoListLRU(64)
	// Hot pages: faulted and repeatedly accessed. Cold: faulted only.
	for i := 0; i < 8; i++ {
		p.OnFault(core.PFN(i))
		p.OnAccess(core.PFN(i))
		p.OnAccess(core.PFN(i))
	}
	for i := 8; i < 16; i++ {
		p.OnFault(core.PFN(i))
	}
	// The first 8 victims must all be cold pages.
	for k := 0; k < 8; k++ {
		v := p.Victim()
		if v < 8 {
			t.Fatalf("victim %d is a hot page", v)
		}
		p.OnRemove(v)
	}
}

func TestTwoListSecondChance(t *testing.T) {
	p := NewTwoListLRU(16)
	p.OnFault(0)
	p.OnFault(1)
	// Page 0 referenced once (bit set, still inactive).
	p.OnAccess(0)
	// Victim scan should skip (promote) 0 and pick 1... page 1 is at the
	// head, page 0 at the tail of inactive. The tail (0) is referenced, so
	// it gets promoted and the victim is 1.
	if v := p.Victim(); v != 1 {
		t.Errorf("Victim = %d, want 1 (second chance for referenced page)", v)
	}
}

func TestTwoListAllActiveStillFindsVictim(t *testing.T) {
	p := NewTwoListLRU(32)
	for i := 0; i < 10; i++ {
		p.OnFault(core.PFN(i))
		p.OnAccess(core.PFN(i))
		p.OnAccess(core.PFN(i)) // everyone active
	}
	for k := 0; k < 10; k++ {
		v := p.Victim()
		p.OnRemove(v)
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d after draining", p.Len())
	}
}

func TestPoliciesTrackLenConsistently(t *testing.T) {
	t.Run("two-list", func(t *testing.T) {
		p := NewTwoListLRU(256)
		rng := rand.New(rand.NewSource(1))
		resident := map[core.PFN]bool{}
		for i := 0; i < 10000; i++ {
			pfn := core.PFN(rng.Intn(256))
			switch {
			case !resident[pfn]:
				p.OnFault(pfn)
				resident[pfn] = true
			case rng.Intn(4) == 0:
				p.OnRemove(pfn)
				delete(resident, pfn)
			default:
				p.OnAccess(pfn)
			}
			if p.Len() != len(resident) {
				t.Fatalf("iteration %d: Len = %d, model %d", i, p.Len(), len(resident))
			}
		}
		// Drain via Victim; every victim must be resident per model.
		for len(resident) > 0 {
			v := p.Victim()
			if !resident[v] {
				t.Fatalf("victim %d is not resident", v)
			}
			p.OnRemove(v)
			delete(resident, v)
		}
	})
}

func TestTwoListCyclicPatternIsWorstCase(t *testing.T) {
	// The classic LRU pathology: cycling over N+1 pages with capacity N
	// makes LRU-family policies evict exactly the page needed next.
	// This test documents the baseline behaviour that §4.3 credits for
	// mosaic's swapping wins: the two-list policy (like any LRU) misses
	// every time on a cyclic scan.
	const capacity, pages = 64, 65
	p := NewTwoListLRU(pages)
	resident := map[core.PFN]bool{}
	faults := 0
	for round := 0; round < 10; round++ {
		for i := 0; i < pages; i++ {
			pfn := core.PFN(i)
			if resident[pfn] {
				p.OnAccess(pfn)
				continue
			}
			faults++
			if len(resident) >= capacity {
				v := p.Victim()
				p.OnRemove(v)
				delete(resident, v)
			}
			p.OnFault(pfn)
			resident[pfn] = true
		}
	}
	// After warm-up, every access in a cycle faults under LRU-like
	// policies: ≥ 9 full rounds of faults.
	if faults < 9*pages {
		t.Errorf("faults = %d; expected near-total misses (≥ %d) on cyclic scan", faults, 9*pages)
	}
}

func BenchmarkTwoListVictim(b *testing.B) {
	p := NewTwoListLRU(1 << 12)
	for i := 0; i < 1<<12; i++ {
		p.OnFault(core.PFN(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := p.Victim()
		p.OnRemove(v)
		p.OnFault(v)
	}
}
