package vm

import (
	"cmp"
	"slices"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/invariant"
)

// boundaryVPNs are the VPNs around the record layout's edges: the first
// page, a chunk boundary, a directory boundary, a high heap address, and
// the last page a 48-bit address space holds.
var boundaryVPNs = []core.VPN{0, 511, 512, 1<<18 - 1, 1 << 18, 0x7f0000, 1<<36 - 1}

// recordModel is the map oracle FuzzPageRecords checks the dense records
// against: one entry per private page and per shared-region page, updated
// by the operations the fuzzer issues and by the eviction hook.
type recordModel struct {
	private map[modelKey]*modelPage
	shared  map[modelKey]modelShare // (asid, vpn) → region page
	spaces  map[core.ASID]bool
}

type modelKey struct {
	asid core.ASID
	vpn  core.VPN
}

type modelPage struct {
	state pageState
	pfn   core.PFN
	cpfn  core.CPFN
	stamp uint64
}

type modelShare struct {
	region *modelRegion
	index  int
}

type modelRegion struct {
	r     *SharedRegion
	pages []modelPage
}

// page returns the oracle's page for (asid, vpn), nil if unmapped.
func (m *recordModel) page(asid core.ASID, vpn core.VPN) *modelPage {
	if sh, ok := m.shared[modelKey{asid, vpn}]; ok {
		return &sh.region.pages[sh.index]
	}
	return m.private[modelKey{asid, vpn}]
}

// FuzzPageRecords drives Touch, TouchN, Unmap, ForkCopy and
// MapShared/UnmapShared against a map oracle, in a memory small enough that pages are evicted,
// and checks Touch's outcome, Resolved, Translate, CPFNFor, Window,
// MappedPages and CheckInvariants against it. VPNs cluster around the
// record layout's chunk and directory boundaries.
func FuzzPageRecords(f *testing.F) {
	for i := range boundaryVPNs {
		f.Add(byte(0), []byte{0, byte(i), 8, 0, byte(i), 9, 1, byte(i), 7, 3, byte(i), 8, 0, byte(i), 8})
	}
	f.Add(byte(1), []byte{0, 1, 8, 0, 2, 8, 4, 1, 0, 5, 3, 9, 0, 3, 9, 3, 1, 8, 4, 2, 0})
	f.Add(byte(0), []byte("fault, evict, fork and share around every boundary \x00\x07\x13"))
	f.Add(byte(0), pressureOps())
	f.Add(byte(1), pressureOps())
	// The same pressure with its read touches made runs of two accesses.
	runs := pressureOps()
	for k := 0; k < len(runs); k += 3 {
		if runs[k] == 0 {
			runs[k] = 6
		}
	}
	f.Add(byte(0), runs)
	f.Add(byte(1), runs)
	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		frames, m := 128, ModeMosaic
		if mode%2 == 1 {
			frames, m = 96, ModeVanilla
		}
		s, err := New(Config{Frames: frames, Mode: m, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		model := &recordModel{
			private: map[modelKey]*modelPage{},
			shared:  map[modelKey]modelShare{},
			spaces:  map[core.ASID]bool{},
		}
		// evicted collects, per page, the mappings the eviction hook named
		// during the current operation. A page is evicted at most once per
		// operation, and the hook names each mapping of it once.
		evicted := map[*modelPage][]modelKey{}
		s.OnEvict(func(asid core.ASID, vpn core.VPN) {
			pg := model.page(asid, vpn)
			if pg == nil || (len(evicted[pg]) == 0 && pg.state != pageResident) {
				t.Fatalf("evicted (asid %d, vpn %#x), which the oracle does not hold resident", asid, vpn)
			}
			*pg = modelPage{state: pageSwapped}
			evicted[pg] = append(evicted[pg], modelKey{asid, vpn})
		})

		for k := 0; k+2 < len(ops); k += 3 {
			op := ops[k] % 7
			asid := core.ASID(1 + ops[k+1]>>6%3)
			vpn := boundaryVPNs[int(ops[k+1])%len(boundaryVPNs)] + core.VPN(ops[k+2]%16) - 8
			if vpn > 1<<36-1 {
				vpn = 0 // wrapped below zero or past the last page
			}
			switch op {
			case 0, 1, 2:
				model.touch(t, s, asid, vpn, 1, op == 1)
			case 3:
				model.unmap(t, s, asid, vpn)
			case 4:
				model.fork(t, s, asid, core.ASID(1+(uint32(asid)+uint32(ops[k+2]))%4))
			case 5:
				model.mapShared(t, s, asid, vpn, 1+int(ops[k+2]%4))
			case 6:
				model.touch(t, s, asid, vpn, 2+uint64(ops[k+2]>>5), ops[k+2]&16 != 0)
			}
			model.checkEvicted(t, evicted)
			clear(evicted)
			model.check(t, s, asid, vpn)
		}
		for key := range model.private {
			model.check(t, s, key.asid, key.vpn)
		}
		for key := range model.shared {
			model.check(t, s, key.asid, key.vpn)
		}
		var r invariant.Report
		s.CheckInvariants(&r)
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// pressureOps is a FuzzPageRecords op sequence long enough to overflow
// its memory: it maps a four-page shared region into ASID 1 and faults it
// in, faults in all 112 VPNs of ASIDs 1 to 3 so that earlier pages,
// shared ones included, are swapped out, forks ASID 1 (which then holds
// swapped pages) onto ASID 4, and unmaps and re-touches every page of
// ASID 2.
func pressureOps() []byte {
	// op returns the three bytes of one operation on the space asid, at
	// offset off-8 from boundaryVPNs[bnd].
	op := func(code byte, asid core.ASID, bnd int, off byte) []byte {
		b := byte(asid-1) << 6
		for int(b)%len(boundaryVPNs) != bnd {
			b++
		}
		return []byte{code, b, off}
	}
	ops := op(5, 1, 3, 11) // map 4 pages at 2^18+2
	for off := byte(11); off < 15; off++ {
		ops = append(ops, op(1, 1, 3, off)...)
	}
	each := func(code byte, asid core.ASID) {
		for bnd := range boundaryVPNs {
			for off := byte(0); off < 16; off++ {
				ops = append(ops, op(code, asid, bnd, off)...)
			}
		}
	}
	for asid := core.ASID(1); asid <= 3; asid++ {
		each(byte(asid%2), asid)
	}
	ops = append(ops, op(4, 1, 0, 2)...) // fork 1 onto 1+(1+2)%4 = 4
	each(3, 2)
	each(0, 2)
	return ops
}

// touch makes n accesses to (asid, vpn), one Touch when n is 1 and one
// TouchN otherwise, and checks the first access's outcome.
func (m *recordModel) touch(t *testing.T, s *System, asid core.ASID, vpn core.VPN, n uint64, write bool) {
	t.Helper()
	pg := m.page(asid, vpn)
	want := MinorFault
	if pg != nil && pg.state == pageResident {
		want = Hit
	} else if pg != nil && pg.state == pageSwapped {
		want = MajorFault
	}
	before := modelPage{}
	if pg != nil {
		before = *pg
	}
	clock := s.Clock()
	var got AccessResult
	if n == 1 {
		got = s.Touch(asid, vpn, write)
	} else {
		got = s.TouchN(asid, vpn, n, write)
	}
	m.spaces[asid] = true
	if got != want {
		t.Fatalf("TouchN(%d, %#x, %d) = %v, oracle %v", asid, vpn, n, got, want)
	}
	if s.Clock() != clock+n {
		t.Fatalf("TouchN(%d, %#x, %d) moved the clock from %d to %d", asid, vpn, n, clock, s.Clock())
	}
	if pg == nil {
		pg = &modelPage{}
		m.private[modelKey{asid, vpn}] = pg
	}
	pfn, cpfn := s.Resolved()
	if got == Hit {
		if pfn != before.pfn || cpfn != before.cpfn {
			t.Fatalf("hit on (%d, %#x) resolved to frame %d CPFN %d, was %d/%d: a resident page moved",
				asid, vpn, pfn, cpfn, before.pfn, before.cpfn)
		}
		return
	}
	*pg = modelPage{state: pageResident, pfn: pfn, cpfn: cpfn, stamp: clock + 1}
}

func (m *recordModel) unmap(t *testing.T, s *System, asid core.ASID, vpn core.VPN) {
	t.Helper()
	key := modelKey{asid, vpn}
	if sh, ok := m.shared[key]; ok {
		if vpn%2 == 0 {
			// Drop just this page's mapping.
			if !s.Unmap(asid, vpn) {
				t.Fatalf("Unmap(%d, %#x) of a shared page failed", asid, vpn)
			}
			delete(m.shared, key)
			m.gcRegion(sh.region)
			return
		}
		// Unmap the whole mapping the page belongs to, which succeeds only
		// while every page of it is still mapped.
		base := vpn - core.VPN(sh.index)
		whole := true
		for i := range sh.region.pages {
			got, ok := m.shared[modelKey{asid, base + core.VPN(i)}]
			whole = whole && ok && got == modelShare{sh.region, i}
		}
		if err := s.UnmapShared(asid, base, sh.region.r); (err == nil) != whole {
			t.Fatalf("UnmapShared(%d, %#x) error = %v, oracle says the mapping is whole: %v", asid, base, err, whole)
		}
		if whole {
			for i := range sh.region.pages {
				delete(m.shared, modelKey{asid, base + core.VPN(i)})
			}
			m.gcRegion(sh.region)
		}
		return
	}
	_, mapped := m.private[key]
	if got := s.Unmap(asid, vpn); got != mapped {
		t.Fatalf("Unmap(%d, %#x) = %v, oracle mapped %v", asid, vpn, got, mapped)
	}
	delete(m.private, key)
}

// checkEvicted checks that the eviction hook named every mapping of each
// page it evicted: one for a private page, every (asid, vpn) that maps a
// shared one.
func (m *recordModel) checkEvicted(t *testing.T, evicted map[*modelPage][]modelKey) {
	t.Helper()
	for pg, got := range evicted {
		var want []modelKey
		for key, p := range m.private {
			if p == pg {
				want = append(want, key)
			}
		}
		for key, sh := range m.shared {
			if &sh.region.pages[sh.index] == pg {
				want = append(want, key)
			}
		}
		byKey := func(a, b modelKey) int {
			return cmp.Or(cmp.Compare(a.asid, b.asid), cmp.Compare(a.vpn, b.vpn))
		}
		slices.SortFunc(got, byKey)
		slices.SortFunc(want, byKey)
		if !slices.Equal(got, want) {
			t.Fatalf("eviction hook named %v, the page's mappings are %v", got, want)
		}
	}
}

// gcRegion forgets a region's pages once nothing maps it: the system
// frees them then.
func (m *recordModel) gcRegion(region *modelRegion) {
	for _, sh := range m.shared {
		if sh.region == region {
			return
		}
	}
	for i := range region.pages {
		region.pages[i] = modelPage{}
	}
}

func (m *recordModel) fork(t *testing.T, s *System, parent, child core.ASID) {
	t.Helper()
	wantErr := parent == child || !m.spaces[parent]
	for key := range m.private {
		wantErr = wantErr || key.asid == child
	}
	for key := range m.shared {
		wantErr = wantErr || key.asid == child
	}
	if !wantErr {
		// The child inherits the shared mappings before any page is
		// copied, so a copy that evicts a shared page reports them too.
		for key, sh := range m.shared {
			if key.asid == parent {
				m.shared[modelKey{child, key.vpn}] = sh
			}
		}
	}
	st, err := s.ForkCopy(parent, child)
	if parent != child && m.spaces[parent] {
		m.spaces[child] = true
	}
	if (err != nil) != wantErr {
		t.Fatalf("ForkCopy(%d, %d) error = %v, oracle expects an error: %v", parent, child, err, wantErr)
	}
	if err != nil {
		return
	}
	// Copies may evict parent pages before their turn, so which child pages
	// are resident is the system's to say; the oracle checks that every
	// parent page is inherited and adopts the child's states.
	inherited := 0
	for key, pg := range m.private {
		if key.asid != parent {
			continue
		}
		inherited++
		ck := modelKey{child, key.vpn}
		cp := &modelPage{state: pageSwapped}
		if pfn, ok := s.Translate(child, key.vpn); ok {
			cpfn, _ := s.CPFNFor(child, key.vpn)
			cp = &modelPage{state: pageResident, pfn: pfn, cpfn: cpfn, stamp: s.stampOf(child, key.vpn)}
		}
		if cp.state == pageResident && pg.state == pageResident && cp.pfn == pg.pfn {
			t.Fatalf("child page %#x shares frame %d with its parent", key.vpn, pg.pfn)
		}
		m.private[ck] = cp
	}
	if got := st.CopiedPages + st.ClonedSwapSlots; got != inherited {
		t.Fatalf("ForkCopy copied %d and cloned %d pages, parent maps %d", st.CopiedPages, st.ClonedSwapSlots, inherited)
	}
}

// stampOf reads (asid, vpn)'s stamp from its record.
func (s *System) stampOf(asid core.ASID, vpn core.VPN) uint64 {
	c, i := s.spaces[asid].lookup(vpn)
	return c.stamp[i]
}

func (m *recordModel) mapShared(t *testing.T, s *System, asid core.ASID, base core.VPN, n int) {
	t.Helper()
	r, err := s.CreateSharedRegion(n)
	if err != nil {
		t.Fatal(err)
	}
	region := &modelRegion{r: r, pages: make([]modelPage, n)}
	wantErr := false
	for i := 0; i < n; i++ {
		if m.page(asid, base+core.VPN(i)) != nil {
			wantErr = true
		}
	}
	err = s.MapShared(asid, base, r)
	m.spaces[asid] = true
	if (err != nil) != wantErr {
		t.Fatalf("MapShared(%d, %#x, %d pages) error = %v, oracle expects an error: %v", asid, base, n, err, wantErr)
	}
	if err != nil {
		return
	}
	for i := 0; i < n; i++ {
		m.shared[modelKey{asid, base + core.VPN(i)}] = modelShare{region: region, index: i}
	}
}

// check compares everything the System reports about (asid, vpn) with the
// oracle, including the page's place in every window that holds it.
func (m *recordModel) check(t *testing.T, s *System, asid core.ASID, vpn core.VPN) {
	t.Helper()
	pg := m.page(asid, vpn)
	resident := pg != nil && pg.state == pageResident
	pfn, ok := s.Translate(asid, vpn)
	if ok != resident || (ok && pfn != pg.pfn) {
		t.Fatalf("Translate(%d, %#x) = %d, %v; oracle %+v", asid, vpn, pfn, ok, pg)
	}
	cpfn, ok := s.CPFNFor(asid, vpn)
	wantCPFN := s.Mode() == ModeMosaic && resident
	if ok != wantCPFN || (ok && cpfn != pg.cpfn) {
		t.Fatalf("CPFNFor(%d, %#x) = %d, %v; oracle %+v", asid, vpn, cpfn, ok, pg)
	}
	if as, ok := s.spaces[asid]; ok {
		dst := make([]core.CPFN, ChunkPages)
		for _, n := range []int{1, 4, 64, ChunkPages} {
			w := as.Window(vpn, n)
			j := int(uint64(vpn) & uint64(n-1))
			now := s.Clock()
			if got, _ := w.PFN(j, now); resident && got != pg.pfn {
				t.Fatalf("Window(%#x, %d) frame %d, oracle %d", vpn, n, got, pg.pfn)
			}
			if _, ok := w.PFN(j, now); ok != resident {
				t.Fatalf("Window(%#x, %d) resident %v, oracle %v", vpn, n, ok, resident)
			}
			wantC := core.CPFNInvalid
			if resident {
				wantC = pg.cpfn
			}
			if got := w.CPFN(j, now); got != wantC {
				t.Fatalf("Window(%#x, %d) CPFN %d, oracle %d", vpn, n, got, wantC)
			}
			if got := w.CPFNs(now, dst)[j]; got != wantC {
				t.Fatalf("Window(%#x, %d) ToC holds CPFN %d, oracle %d", vpn, n, got, wantC)
			}
			if resident {
				// As of the clock before the page came in, it is absent.
				if got := w.CPFN(j, pg.stamp-1); got != core.CPFNInvalid {
					t.Fatalf("Window(%#x, %d) as of %d, before the fault at %d: CPFN %d", vpn, n, pg.stamp-1, pg.stamp, got)
				}
				if got := w.CPFNs(pg.stamp-1, dst)[j]; got != core.CPFNInvalid {
					t.Fatalf("Window(%#x, %d) ToC as of %d, before the fault at %d: CPFN %d", vpn, n, pg.stamp-1, pg.stamp, got)
				}
				if _, ok := w.PFN(j, pg.stamp-1); ok {
					t.Fatalf("Window(%#x, %d) resident as of %d, before the fault at %d", vpn, n, pg.stamp-1, pg.stamp)
				}
			}
		}
	}
	mapped := 0
	for key := range m.private {
		if key.asid == asid {
			mapped++
		}
	}
	if got := s.MappedPages(asid); got != mapped {
		t.Fatalf("MappedPages(%d) = %d, oracle %d", asid, got, mapped)
	}
}
