package swap

import (
	"math/rand"
	"testing"

	"mosaic/internal/alloc"
	"mosaic/internal/core"
)

func TestDevice(t *testing.T) {
	d := NewDevice()
	a := alloc.Owner{ASID: 1, VPN: 10}
	b := alloc.Owner{ASID: 1, VPN: 20}

	if d.PageIn(a) {
		t.Error("PageIn of never-swapped page returned true")
	}
	if d.PageIns() != 0 {
		t.Error("spurious page-in counted")
	}

	d.PageOut(a)
	d.PageOut(b)
	if d.PageOuts() != 2 || d.Resident() != 2 {
		t.Errorf("outs=%d resident=%d", d.PageOuts(), d.Resident())
	}
	if !d.Contains(a) {
		t.Error("Contains(a) = false")
	}
	if !d.PageIn(a) {
		t.Error("PageIn of swapped page returned false")
	}
	if d.Contains(a) {
		t.Error("page still on device after page-in")
	}
	if d.TotalIO() != 3 {
		t.Errorf("TotalIO = %d, want 3", d.TotalIO())
	}
	d.Drop(b)
	if d.Contains(b) || d.TotalIO() != 3 {
		t.Error("Drop should remove without I/O")
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

func TestDeviceClone(t *testing.T) {
	d := NewDevice()
	parent := alloc.Owner{ASID: 1, VPN: 7}
	child := alloc.Owner{ASID: 2, VPN: 7}
	d.PageOut(parent)
	io := d.TotalIO()
	d.Clone(parent, child)
	if d.TotalIO() != io {
		t.Error("Clone counted I/O")
	}
	if !d.Contains(parent) || !d.Contains(child) {
		t.Error("Clone lost a slot")
	}
	// Each slot pages in independently.
	if !d.PageIn(child) {
		t.Error("child slot missing")
	}
	if !d.Contains(parent) {
		t.Error("parent slot vanished with child's page-in")
	}
	defer func() {
		if recover() == nil {
			t.Error("Clone of absent slot should panic")
		}
	}()
	d.Clone(alloc.Owner{ASID: 9, VPN: 9}, child)
}
