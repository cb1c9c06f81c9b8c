package alloc

import (
	"errors"
	"math/rand"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/xxhash"
)

func newMem(t testing.TB, frames int, seed uint64) *Memory {
	t.Helper()
	return NewMemory(frames, core.DefaultGeometry, xxhash.NewPlacement(seed))
}

func TestPlaceFrontyardFirst(t *testing.T) {
	m := newMem(t, 64*16, 1)
	p, err := m.Place(1, 100, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Geometry().IsFrontyard(p.CPFN) {
		t.Errorf("first placement went to backyard (CPFN %d)", p.CPFN)
	}
	if p.Evicted != nil {
		t.Errorf("placement into empty memory evicted %+v", *p.Evicted)
	}
	if m.Used() != 1 {
		t.Errorf("Used = %d", m.Used())
	}
	if got := m.DecodeCPFN(1, 100, p.CPFN); got != p.PFN {
		t.Errorf("DecodeCPFN = %d, want %d", got, p.PFN)
	}
	owner, _, _, used := m.FrameInfo(p.PFN)
	if !used || owner != (Owner{ASID: 1, VPN: 100}) {
		t.Errorf("FrameInfo = %+v used=%v", owner, used)
	}
}

// fixedHash sends every page to bucket 0's frontyard and backyard buckets
// 1..d, regardless of key — handy for forcing collisions.
type fixedHash struct{}

func (fixedHash) Hash(asid core.ASID, vpn core.VPN, fn int) uint64 { return uint64(fn) }

func TestBackyardSpilloverAndConflict(t *testing.T) {
	g := core.DefaultGeometry
	m := NewMemory(64*8, g, fixedHash{})
	// Fill the frontyard (56), then the 6 backyard bins (6*8 = 48), then
	// expect a conflict: total successful placements = 104 = associativity.
	var placements []Placement
	for i := 0; ; i++ {
		p, err := m.Place(1, core.VPN(i), uint64(i+1), 0)
		if err != nil {
			if !errors.Is(err, ErrConflict) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		placements = append(placements, p)
	}
	if len(placements) != g.Associativity() {
		t.Fatalf("placed %d pages before conflict, want %d", len(placements), g.Associativity())
	}
	front := 0
	for _, p := range placements {
		if g.IsFrontyard(p.CPFN) {
			front++
		}
	}
	if front != g.FrontyardSize {
		t.Errorf("%d frontyard placements, want %d", front, g.FrontyardSize)
	}
	// All placements must land on distinct frames.
	seen := map[core.PFN]bool{}
	for _, p := range placements {
		if seen[p.PFN] {
			t.Fatalf("frame %d allocated twice", p.PFN)
		}
		seen[p.PFN] = true
	}
}

func TestBackyardPowerOfChoicesBalance(t *testing.T) {
	// With the fixed hash, backyard fills round-robin across the d bins
	// (always choosing the emptiest), so after 12 backyard placements every
	// bin holds exactly 2.
	g := core.DefaultGeometry
	m := NewMemory(64*8, g, fixedHash{})
	for i := 0; i < g.FrontyardSize+12; i++ {
		if _, err := m.Place(1, core.VPN(i), uint64(i+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	counts := make(map[int]int)
	cands := m.Candidates(1, 0, nil)
	for _, c := range cands {
		if c.Used && !g.IsFrontyard(c.CPFN) {
			choice, _ := g.Split(c.CPFN)
			counts[choice]++
		}
	}
	for j := 0; j < g.Choices; j++ {
		if counts[j] != 2 {
			t.Errorf("backyard choice %d holds %d pages, want 2 (power-of-d balance)", j, counts[j])
		}
	}
}

func TestGhostReclaimFrontyard(t *testing.T) {
	g := core.DefaultGeometry
	m := NewMemory(64*8, g, fixedHash{})
	// Fill the frontyard with pages whose access times are 1..56.
	for i := 0; i < g.FrontyardSize; i++ {
		if _, err := m.Place(1, core.VPN(i), uint64(i+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	// With horizon 3, pages with lastAccess 1 and 2 are ghosts; a new
	// placement must reclaim the oldest (lastAccess 1 = VPN 0) and stay in
	// the frontyard.
	p, err := m.Place(1, 1000, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsFrontyard(p.CPFN) {
		t.Errorf("placement went to backyard despite frontyard ghost")
	}
	if p.Evicted == nil {
		t.Fatal("no eviction reported")
	}
	if p.Evicted.VPN != 0 {
		t.Errorf("evicted VPN %d, want 0 (the oldest ghost)", p.Evicted.VPN)
	}
	if m.Used() != g.FrontyardSize {
		t.Errorf("Used = %d, want %d (one in, one out)", m.Used(), g.FrontyardSize)
	}
}

func TestGhostsDontCountInBackyardOccupancy(t *testing.T) {
	g := core.DefaultGeometry
	m := NewMemory(64*8, g, fixedHash{})
	// Fill frontyard + all backyard bins completely (access times 1..104).
	for i := 0; i < g.Associativity(); i++ {
		if _, err := m.Place(1, core.VPN(i), uint64(i+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Horizon above all access times: everything is a ghost. A new
	// placement must succeed by reclaiming (frontyard oldest first).
	p, err := m.Place(1, 2000, 200, 1000)
	if err != nil {
		t.Fatalf("placement failed despite all-ghost memory: %v", err)
	}
	if p.Evicted == nil {
		t.Fatal("reclaim not reported")
	}
}

func TestConflictThenEvictRetry(t *testing.T) {
	g := core.DefaultGeometry
	m := NewMemory(64*8, g, fixedHash{})
	for i := 0; i < g.Associativity(); i++ {
		if _, err := m.Place(1, core.VPN(i), uint64(i+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	_, err := m.Place(1, 5000, 500, 0)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
	// The OS picks the LRU candidate and evicts it.
	cands := m.Candidates(1, 5000, nil)
	if len(cands) != g.Associativity() {
		t.Fatalf("Candidates returned %d entries, want %d", len(cands), g.Associativity())
	}
	victim := cands[0]
	for _, c := range cands {
		if c.Used && (!victim.Used || c.LastAccess < victim.LastAccess) {
			victim = c
		}
	}
	if victim.LastAccess != 1 {
		t.Fatalf("LRU candidate has lastAccess %d, want 1", victim.LastAccess)
	}
	evicted := m.Evict(victim.PFN)
	if evicted.VPN != 0 {
		t.Fatalf("evicted VPN %d, want 0", evicted.VPN)
	}
	p, err := m.Place(1, 5000, 500, 0)
	if err != nil {
		t.Fatalf("retry after evict failed: %v", err)
	}
	if p.PFN != victim.PFN {
		t.Errorf("retry used frame %d, want the freed frame %d", p.PFN, victim.PFN)
	}
}

func TestCandidatesMatchFrameInfo(t *testing.T) {
	m := newMem(t, 64*64, 7)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		if _, err := m.Place(1, core.VPN(rng.Intn(10000)), uint64(i+1), 0); err != nil {
			// Duplicate VPNs can conflict; skip.
			continue
		}
	}
	for vpn := core.VPN(0); vpn < 100; vpn++ {
		for _, c := range m.Candidates(1, vpn, nil) {
			owner, last, _, used := m.FrameInfo(c.PFN)
			if used != c.Used || owner != c.Owner || last != c.LastAccess {
				t.Fatalf("candidate %+v disagrees with FrameInfo (%+v, %d, %v)", c, owner, last, used)
			}
			if got := m.DecodeCPFN(1, vpn, c.CPFN); got != c.PFN {
				t.Fatalf("DecodeCPFN(%d) = %d, candidate says %d", c.CPFN, got, c.PFN)
			}
		}
	}
}

func TestFirstConflictUtilization(t *testing.T) {
	// The paper's Table 3 headline through the allocator path: placing
	// distinct pages with a real hash should not conflict before ~98%.
	m := newMem(t, 1<<15, 42)
	vpn := core.VPN(0)
	for {
		_, err := m.Place(1, vpn, uint64(vpn)+1, 0)
		if err != nil {
			break
		}
		vpn++
	}
	if u := m.Utilization(); u < 0.95 {
		t.Errorf("first conflict at utilization %.4f, want ≥ 0.95 (paper: ≈0.98)", u)
	} else {
		t.Logf("first conflict at utilization %.4f (paper: ≈0.9803)", u)
	}
}

func TestBackyardStaysSparse(t *testing.T) {
	// Iceberg's analysis (§2.3) needs the backyard to hold a vanishing
	// fraction of pages. At 95% utilization it must sit well under its
	// 8-of-64 share of the frames.
	m := newMem(t, 1<<15, 5)
	target := int(0.95 * float64(m.NumFrames()))
	for vpn := core.VPN(0); m.Used() < target; vpn++ {
		if _, err := m.Place(1, vpn, uint64(vpn)+1, 0); err != nil {
			t.Fatalf("conflict at utilization %.4f before reaching 95%%", m.Utilization())
		}
	}
	frac := float64(m.BackyardUsed()) / float64(m.Used())
	if frac >= 0.125 {
		t.Errorf("backyard holds %.1f%% of pages at 95%% utilization", 100*frac)
	}
	t.Logf("backyard fraction at 95%% utilization: %.2f%%", 100*frac)
}

func TestTouchUpdatesRecency(t *testing.T) {
	m := newMem(t, 64*4, 3)
	p, err := m.Place(1, 10, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Touch(p.PFN, 99, true)
	_, last, dirty, _ := m.FrameInfo(p.PFN)
	if last != 99 || !dirty {
		t.Errorf("after Touch: last=%d dirty=%v", last, dirty)
	}
	// LiveCount with horizon 50: the page was touched at 99, so it's live.
	if m.LiveCount(50) != 1 {
		t.Errorf("LiveCount(50) = %d, want 1", m.LiveCount(50))
	}
	if m.LiveCount(100) != 0 {
		t.Errorf("LiveCount(100) = %d, want 0", m.LiveCount(100))
	}
}

func TestFreeAndReuse(t *testing.T) {
	m := newMem(t, 64*4, 3)
	p, err := m.Place(7, 123, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Free(p.PFN)
	if m.Used() != 0 {
		t.Errorf("Used after Free = %d", m.Used())
	}
	p2, err := m.Place(7, 123, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p2.PFN != p.PFN {
		t.Errorf("re-placement of same page used frame %d, want %d (deterministic hash)", p2.PFN, p.PFN)
	}
}

func TestYardAccounting(t *testing.T) {
	g := core.DefaultGeometry
	m := NewMemory(64*8, g, fixedHash{})
	for i := 0; i < g.FrontyardSize+5; i++ {
		if _, err := m.Place(1, core.VPN(i), uint64(i+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	if m.FrontyardUsed() != g.FrontyardSize {
		t.Errorf("FrontyardUsed = %d, want %d", m.FrontyardUsed(), g.FrontyardSize)
	}
	if m.BackyardUsed() != 5 {
		t.Errorf("BackyardUsed = %d, want 5", m.BackyardUsed())
	}
}

func TestPanics(t *testing.T) {
	m := newMem(t, 64*4, 3)
	assertPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	assertPanic("Touch of free frame", func() { m.Touch(0, 1, false) })
	assertPanic("Free of free frame", func() { m.Free(0) })
	assertPanic("Evict of free frame", func() { m.Evict(0) })
	assertPanic("tiny memory", func() { NewMemory(10, core.DefaultGeometry, fixedHash{}) })
	assertPanic("nil hash", func() { NewMemory(64, core.DefaultGeometry, nil) })
}

func TestUnconstrainedBasics(t *testing.T) {
	u := NewUnconstrained(4)
	var pfns []core.PFN
	for i := 0; i < 4; i++ {
		pfn, err := u.Place(1, core.VPN(i), uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		pfns = append(pfns, pfn)
	}
	if _, err := u.Place(1, 99, 9); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("want ErrNoMemory, got %v", err)
	}
	if u.Used() != 4 || u.FreeFrames() != 0 {
		t.Errorf("Used=%d Free=%d", u.Used(), u.FreeFrames())
	}
	owner := u.Evict(pfns[2])
	if owner.VPN != 2 {
		t.Errorf("evicted owner VPN = %d", owner.VPN)
	}
	pfn, err := u.Place(2, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pfn != pfns[2] {
		t.Errorf("reused frame %d, want %d", pfn, pfns[2])
	}
	u.Touch(pfn, 20, true)
	o, last, dirty, used := u.FrameInfo(pfn)
	if o.ASID != 2 || last != 20 || !dirty || !used {
		t.Errorf("FrameInfo = %+v %d %v %v", o, last, dirty, used)
	}
	if u.Utilization() != 1.0 {
		t.Errorf("Utilization = %f", u.Utilization())
	}
}

func TestUnconstrainedHandsOutLowFramesFirst(t *testing.T) {
	u := NewUnconstrained(8)
	for i := 0; i < 8; i++ {
		pfn, err := u.Place(1, core.VPN(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if pfn != core.PFN(i) {
			t.Fatalf("allocation %d got frame %d", i, pfn)
		}
	}
}

func TestRandomizedAccountingInvariant(t *testing.T) {
	m := newMem(t, 64*32, 99)
	rng := rand.New(rand.NewSource(99))
	resident := map[core.VPN]core.PFN{}
	now := uint64(0)
	for i := 0; i < 20000; i++ {
		now++
		vpn := core.VPN(rng.Intn(4000))
		if pfn, ok := resident[vpn]; ok {
			if rng.Intn(2) == 0 {
				m.Free(pfn)
				delete(resident, vpn)
			} else {
				m.Touch(pfn, now, false)
			}
			continue
		}
		p, err := m.Place(1, vpn, now, 0)
		if err != nil {
			continue // conflict; fine, skip
		}
		if p.Evicted != nil {
			t.Fatalf("eviction with zero horizon")
		}
		resident[vpn] = p.PFN
	}
	if m.Used() != len(resident) {
		t.Fatalf("Used = %d, model says %d", m.Used(), len(resident))
	}
	for vpn, pfn := range resident {
		owner, _, _, used := m.FrameInfo(pfn)
		if !used || owner.VPN != vpn {
			t.Fatalf("frame %d: owner %+v used=%v, want VPN %d", pfn, owner, used, vpn)
		}
	}
}

func BenchmarkPlaceFree(b *testing.B) {
	m := NewMemory(1<<16, core.DefaultGeometry, xxhash.NewPlacement(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := m.Place(1, core.VPN(i), uint64(i), 0)
		if err == nil {
			m.Free(p.PFN)
		}
	}
}

func BenchmarkDecodeCPFN(b *testing.B) {
	m := NewMemory(1<<16, core.DefaultGeometry, xxhash.NewPlacement(1))
	p, err := m.Place(1, 42, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DecodeCPFN(1, 42, p.CPFN)
	}
}
