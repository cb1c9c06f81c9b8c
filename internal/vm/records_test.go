package vm

import (
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/invariant"
)

// boundaryVPNs are the VPNs around the record layout's edges: the first
// page, a chunk boundary, a directory boundary, a high heap address, and
// the last page a 48-bit address space holds.
var boundaryVPNs = []core.VPN{0, 511, 512, 1<<18 - 1, 1 << 18, 0x7f0000, 1<<36 - 1}

// recordModel is the map oracle FuzzPageRecords checks the dense records
// against: one entry per mapped page, updated by the operations the fuzzer
// issues and by the eviction hook.
type recordModel map[modelKey]*modelPage

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

// FuzzPageRecords drives Touch, TouchN and Unmap against a map oracle, in
// a memory small enough that pages are evicted, and checks Touch's
// outcome, Resolved, Translate, CPFNFor, Window, MappedPages, the eviction
// hook and CheckInvariants against it. VPNs cluster around the record
// layout's chunk and directory boundaries.
func FuzzPageRecords(f *testing.F) {
	for i := range boundaryVPNs {
		f.Add(byte(0), []byte{0, byte(i), 8, 0, byte(i), 9, 1, byte(i), 7, 3, byte(i), 8, 0, byte(i), 8})
	}
	f.Add(byte(1), []byte{0, 1, 8, 0, 2, 8, 4, 1, 0, 5, 3, 9, 0, 3, 9, 3, 1, 8, 4, 2, 0})
	f.Add(byte(0), []byte("fault, evict and unmap around every boundary \x00\x07\x13"))
	f.Add(byte(0), pressureOps())
	f.Add(byte(1), pressureOps())
	// The same pressure with its read touches made runs of two accesses.
	runs := pressureOps()
	for k := 0; k < len(runs); k += 3 {
		if runs[k] == 0 {
			runs[k] = 4
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
		model := recordModel{}
		// The hook must name a page the oracle holds resident; a page has
		// one owner, so it is named once.
		s.OnEvict(func(asid core.ASID, vpn core.VPN) {
			pg := model[modelKey{asid, vpn}]
			if pg == nil || pg.state != pageResident {
				t.Fatalf("evicted (asid %d, vpn %#x), which the oracle does not hold resident", asid, vpn)
			}
			*pg = modelPage{state: pageSwapped}
		})

		for k := 0; k+2 < len(ops); k += 3 {
			op := ops[k] % 5
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
				model.touch(t, s, asid, vpn, 2+uint64(ops[k+2]>>5), ops[k+2]&16 != 0)
			}
			model.check(t, s, asid, vpn)
		}
		for key := range model {
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
// its memory: it faults in all 112 VPNs of ASIDs 1 to 3, so that earlier
// pages are swapped out, and then unmaps and re-touches every page of
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
	var ops []byte
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
	each(3, 2)
	each(0, 2)
	return ops
}

// touch makes n accesses to (asid, vpn), one Touch when n is 1 and one
// TouchN otherwise, and checks the first access's outcome.
func (m recordModel) touch(t *testing.T, s *System, asid core.ASID, vpn core.VPN, n uint64, write bool) {
	t.Helper()
	pg := m[modelKey{asid, vpn}]
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
	if got != want {
		t.Fatalf("TouchN(%d, %#x, %d) = %v, oracle %v", asid, vpn, n, got, want)
	}
	if s.Clock() != clock+n {
		t.Fatalf("TouchN(%d, %#x, %d) moved the clock from %d to %d", asid, vpn, n, clock, s.Clock())
	}
	if pg == nil {
		pg = &modelPage{}
		m[modelKey{asid, vpn}] = pg
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

func (m recordModel) unmap(t *testing.T, s *System, asid core.ASID, vpn core.VPN) {
	t.Helper()
	key := modelKey{asid, vpn}
	_, mapped := m[key]
	if got := s.Unmap(asid, vpn); got != mapped {
		t.Fatalf("Unmap(%d, %#x) = %v, oracle mapped %v", asid, vpn, got, mapped)
	}
	delete(m, key)
}

// check compares everything the System reports about (asid, vpn) with the
// oracle, including the page's place in every window that holds it.
func (m recordModel) check(t *testing.T, s *System, asid core.ASID, vpn core.VPN) {
	t.Helper()
	pg := m[modelKey{asid, vpn}]
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
	for key := range m {
		if key.asid == asid {
			mapped++
		}
	}
	if got := s.MappedPages(asid); got != mapped {
		t.Fatalf("MappedPages(%d) = %d, oracle %d", asid, got, mapped)
	}
}
