package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"mosaic/internal/core"
)

func TestGeometryValidate(t *testing.T) {
	cases := []struct {
		g  Geometry
		ok bool
	}{
		{Geometry{1024, 1}, true},
		{Geometry{1024, 2}, true},
		{Geometry{1024, 8}, true},
		{Geometry{1024, 1024}, true},
		{Geometry{0, 1}, false},
		{Geometry{1024, 0}, false},
		{Geometry{1024, 3}, false}, // 1024/3 not integral
		{Geometry{96, 2}, false},   // 48 sets: not a power of two
		{Geometry{1024, -1}, false},
	}
	for _, tc := range cases {
		if err := tc.g.Validate(); (err == nil) != tc.ok {
			t.Errorf("%+v: Validate = %v, want ok=%v", tc.g, err, tc.ok)
		}
	}
	if (Geometry{1024, 8}).Sets() != 128 {
		t.Error("Sets() wrong")
	}
}

func TestGeometryString(t *testing.T) {
	if got := (Geometry{1024, 1}).String(); got != "1024-entry direct-mapped" {
		t.Errorf("direct: %q", got)
	}
	if got := (Geometry{1024, 1024}).String(); got != "1024-entry fully-associative" {
		t.Errorf("full: %q", got)
	}
	if got := (Geometry{1024, 8}).String(); got != "1024-entry 8-way" {
		t.Errorf("8-way: %q", got)
	}
}

func TestVanillaHitMiss(t *testing.T) {
	tl := NewVanilla(Geometry{Entries: 16, Ways: 4})
	if _, ok := tl.Lookup(100); ok {
		t.Fatal("hit in empty TLB")
	}
	tl.Insert(100, 7)
	pfn, ok := tl.Lookup(100)
	if !ok || pfn != 7 {
		t.Fatalf("Lookup = %d,%v", pfn, ok)
	}
	st := tl.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.EntryMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Lookups() != 2 || st.MissRate() != 0.5 {
		t.Errorf("lookups=%d missrate=%f", st.Lookups(), st.MissRate())
	}
}

func TestVanillaLRUWithinSet(t *testing.T) {
	// 4 entries, 2 ways → 2 sets. VPNs 0,2,4 all map to set 0.
	tl := NewVanilla(Geometry{Entries: 4, Ways: 2})
	tl.Insert(0, 10)
	tl.Insert(2, 12)
	tl.Lookup(0) // 0 is now MRU; 2 is LRU
	tl.Insert(4, 14)
	if _, ok := tl.Lookup(2); ok {
		t.Error("LRU entry 2 survived eviction")
	}
	if _, ok := tl.Lookup(0); !ok {
		t.Error("MRU entry 0 was evicted")
	}
	if _, ok := tl.Lookup(4); !ok {
		t.Error("new entry 4 missing")
	}
	if tl.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", tl.Stats().Evictions)
	}
}

func TestVanillaSetIsolation(t *testing.T) {
	// Direct-mapped: VPNs that differ in the index bits cannot conflict.
	tl := NewVanilla(Geometry{Entries: 8, Ways: 1})
	for v := core.VPN(0); v < 8; v++ {
		tl.Insert(v, core.PFN(v+100))
	}
	for v := core.VPN(0); v < 8; v++ {
		if pfn, ok := tl.Lookup(v); !ok || pfn != core.PFN(v+100) {
			t.Fatalf("entry %d evicted or wrong: %d,%v", v, pfn, ok)
		}
	}
	// Conflicting VPN evicts only its own set.
	tl.Insert(8, 200) // set 0
	if _, ok := tl.Lookup(0); ok {
		t.Error("direct-mapped conflict did not evict")
	}
	if _, ok := tl.Lookup(1); !ok {
		t.Error("unrelated set was disturbed")
	}
}

func TestVanillaInvalidate(t *testing.T) {
	tl := NewVanilla(Geometry{Entries: 16, Ways: 16})
	tl.Insert(5, 50)
	if !tl.Invalidate(5) {
		t.Fatal("Invalidate of present entry = false")
	}
	if tl.Invalidate(5) {
		t.Fatal("double Invalidate = true")
	}
	if _, ok := tl.Lookup(5); ok {
		t.Fatal("hit after invalidate")
	}
	if tl.Len() != 0 {
		t.Fatalf("Len = %d", tl.Len())
	}
	// Slot is reusable.
	tl.Insert(6, 60)
	if tl.Len() != 1 {
		t.Fatalf("Len after reuse = %d", tl.Len())
	}
}

func TestVanillaUpdateInPlace(t *testing.T) {
	tl := NewVanilla(Geometry{Entries: 4, Ways: 4})
	tl.Insert(1, 10)
	tl.Insert(1, 11)
	if tl.Len() != 1 {
		t.Fatalf("re-insert duplicated entry: Len = %d", tl.Len())
	}
	if pfn, _ := tl.Lookup(1); pfn != 11 {
		t.Fatalf("payload not updated: %d", pfn)
	}
}

func TestMosaicHitRequiresValidSubEntry(t *testing.T) {
	tm := NewMosaic(Geometry{Entries: 16, Ways: 4}, 4)
	toc := tm.InvalidToC()
	toc[1] = 9
	tm.Insert(4, toc) // VPNs 4..7 (MVPN 1)
	if _, ok := tm.Lookup(5); !ok {
		t.Error("miss on valid sub-entry")
	}
	if _, ok := tm.Lookup(6); ok {
		t.Error("hit on invalid sub-entry")
	}
	st := tm.Stats()
	if st.Hits != 1 || st.SubMisses != 1 || st.EntryMisses != 0 {
		t.Errorf("stats = %+v", st)
	}
	if _, ok := tm.Lookup(100); ok {
		t.Error("hit on absent entry")
	}
	if tm.Stats().EntryMisses != 1 {
		t.Errorf("entry miss not counted: %+v", tm.Stats())
	}
}

func TestMosaicSharedEntryAcrossSubpages(t *testing.T) {
	// One mosaic entry covers arity virtually-contiguous pages — the
	// compression the paper's Figure 1 illustrates.
	tm := NewMosaic(Geometry{Entries: 4, Ways: 4}, 4)
	toc := ToC{1, 2, 3, 4}
	tm.Insert(0, toc)
	for vpn := core.VPN(0); vpn < 4; vpn++ {
		cpfn, ok := tm.Lookup(vpn)
		if !ok || cpfn != core.CPFN(vpn+1) {
			t.Fatalf("Lookup(%d) = %d,%v", vpn, cpfn, ok)
		}
	}
	if tm.Len() != 1 {
		t.Fatalf("4 sub-pages consumed %d entries", tm.Len())
	}
}

func TestMosaicReach(t *testing.T) {
	tm := NewMosaic(Geometry{Entries: 1024, Ways: 8}, 4)
	tv := NewVanilla(Geometry{Entries: 1024, Ways: 8})
	if tm.Reach() != 4*tv.Reach() {
		t.Errorf("mosaic reach %d, vanilla %d: want ×4", tm.Reach(), tv.Reach())
	}
	if tv.Reach() != 1024*4096 {
		t.Errorf("vanilla reach = %d", tv.Reach())
	}
}

func TestMosaicInvalidateSub(t *testing.T) {
	tm := NewMosaic(Geometry{Entries: 16, Ways: 4}, 4)
	tm.Insert(0, ToC{1, 2, 3, 4})
	if !tm.InvalidateSub(2) {
		t.Fatal("InvalidateSub of valid sub-entry = false")
	}
	if tm.InvalidateSub(2) {
		t.Fatal("double InvalidateSub = true")
	}
	// Entry itself survives; other sub-pages still hit.
	if _, ok := tm.Lookup(1); !ok {
		t.Error("sibling sub-page lost after sub-invalidation")
	}
	if _, ok := tm.Lookup(2); ok {
		t.Error("invalidated sub-page still hits")
	}
	if tm.Len() != 1 {
		t.Errorf("Len = %d; sub-invalidation must not drop the entry", tm.Len())
	}
	if !tm.InvalidateEntry(1) {
		t.Error("InvalidateEntry failed")
	}
	if tm.Len() != 0 {
		t.Errorf("Len after entry invalidation = %d", tm.Len())
	}
	if tm.InvalidateSub(1) {
		t.Error("InvalidateSub on absent entry = true")
	}
}

func TestMosaicInsertCopiesToC(t *testing.T) {
	tm := NewMosaic(Geometry{Entries: 4, Ways: 4}, 4)
	toc := ToC{1, 2, 3, 4}
	tm.Insert(0, toc)
	toc[0] = 99 // caller mutation must not leak in
	if c, _ := tm.Lookup(0); c != 1 {
		t.Errorf("Insert aliases caller ToC: got %d", c)
	}
}

func TestMosaicWholeEntryEviction(t *testing.T) {
	// 2 entries, fully associative, arity 4: inserting a third mosaic page
	// evicts an entire earlier entry (all 4 sub-pages vanish together).
	tm := NewMosaic(Geometry{Entries: 2, Ways: 2}, 4)
	tm.Insert(0, ToC{1, 1, 1, 1}) // MVPN 0
	tm.Insert(4, ToC{2, 2, 2, 2}) // MVPN 1
	tm.Lookup(0)                  // MVPN 0 → MRU
	tm.Insert(8, ToC{3, 3, 3, 3}) // MVPN 2 → evicts MVPN 1
	for vpn := core.VPN(4); vpn < 8; vpn++ {
		if _, ok := tm.Lookup(vpn); ok {
			t.Fatalf("sub-page %d of evicted entry still hits", vpn)
		}
	}
	if _, ok := tm.Lookup(0); !ok {
		t.Error("MRU entry evicted instead of LRU")
	}
}

func TestMosaicBadArityPanics(t *testing.T) {
	for _, arity := range []int{0, 3, -4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("arity %d should panic", arity)
				}
			}()
			NewMosaic(Geometry{Entries: 16, Ways: 4}, arity)
		}()
	}
}

func TestMosaicWrongToCLengthPanics(t *testing.T) {
	tm := NewMosaic(Geometry{Entries: 16, Ways: 4}, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("short ToC should panic")
		}
	}()
	tm.Insert(0, ToC{1, 2})
}

func TestMosaicCoversMoreThanVanillaOnSequentialScan(t *testing.T) {
	// The headline effect: scanning a region larger than vanilla reach but
	// within mosaic reach, repeatedly, produces far fewer mosaic misses.
	const entries = 64
	gv := Geometry{Entries: entries, Ways: 8}
	tv := NewVanilla(gv)
	tm := NewMosaic(gv, 4)
	pages := entries * 2 // 2× vanilla reach, 0.5× mosaic reach
	for round := 0; round < 10; round++ {
		for v := core.VPN(0); v < core.VPN(pages); v++ {
			if _, ok := tv.Lookup(v); !ok {
				tv.Insert(v, core.PFN(v))
			}
			if _, ok := tm.Lookup(v); !ok {
				mvpn, _ := core.MosaicPage(v, 4)
				base := core.VPN(uint64(mvpn) * 4)
				toc := ToC{}
				for i := core.VPN(0); i < 4; i++ {
					toc = append(toc, core.CPFN(base+i)&0x67)
				}
				tm.Insert(v, toc)
			}
		}
	}
	vm, mm := tv.Stats().Misses, tm.Stats().Misses
	if mm*2 >= vm {
		t.Errorf("mosaic misses %d not ≪ vanilla misses %d", mm, vm)
	}
	t.Logf("sequential scan: vanilla=%d mosaic=%d misses", vm, mm)
}

func TestSetRandomizedAgainstModel(t *testing.T) {
	// Differential test of the LRU set machinery against a reference model:
	// one 4-way set, with the payload in a slot-indexed array as the TLBs
	// keep it.
	s := newTable(1, 4)
	payload := make([]int, 4)
	type entry struct {
		tag uint64
		val int
	}
	var model []entry // front = MRU
	find := func(tag uint64) int {
		for i := range model {
			if model[i].tag == tag {
				return i
			}
		}
		return -1
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		tag := uint64(rng.Intn(12))
		switch rng.Intn(3) {
		case 0: // get
			g, ok := s.lookup(0, tag)
			j := find(tag)
			if ok != (j >= 0) {
				t.Fatalf("get(%d) presence mismatch", tag)
			}
			if ok {
				s.touch(0, g)
				if payload[g] != model[j].val {
					t.Fatalf("get(%d) = %d, model %d", tag, payload[g], model[j].val)
				}
				e := model[j]
				model = append(model[:j], model[j+1:]...)
				model = append([]entry{e}, model...)
			}
		case 1: // insert
			v := rng.Int()
			g, evicted := s.claim(0, tag)
			payload[g] = v
			j := find(tag)
			if j >= 0 {
				if evicted {
					t.Fatalf("insert of present tag %d evicted", tag)
				}
				model = append(model[:j], model[j+1:]...)
			} else if len(model) == 4 {
				if !evicted {
					t.Fatalf("insert into full set did not evict")
				}
				model = model[:3]
			}
			model = append([]entry{{tag, v}}, model...)
		case 2: // invalidate
			ok := s.invalidate(0, tag)
			j := find(tag)
			if ok != (j >= 0) {
				t.Fatalf("invalidate(%d) presence mismatch", tag)
			}
			if ok {
				model = append(model[:j], model[j+1:]...)
			}
		}
		if s.len() != len(model) {
			t.Fatalf("len = %d, model %d", s.len(), len(model))
		}
	}
}

// BenchmarkVanillaLookupHit probes a full 1024-entry TLB at the widths
// around scanWays, the scan/index crossover it places.
func BenchmarkVanillaLookupHit(b *testing.B) {
	for _, ways := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			tl := NewVanilla(Geometry{Entries: 1024, Ways: ways})
			for v := core.VPN(0); v < 1024; v++ {
				tl.Insert(v, core.PFN(v))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tl.Lookup(core.VPN(i & 1023))
			}
		})
	}
}

func BenchmarkMosaicLookupHit(b *testing.B) {
	tm := NewMosaic(Geometry{Entries: 1024, Ways: 8}, 4)
	toc := ToC{1, 2, 3, 4}
	for v := core.VPN(0); v < 4096; v += 4 {
		tm.Insert(v, toc)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Lookup(core.VPN(i & 4095))
	}
}

func BenchmarkVanillaFullyAssociativeLookup(b *testing.B) {
	tl := NewVanilla(Geometry{Entries: 1024, Ways: 1024})
	for v := core.VPN(0); v < 1024; v++ {
		tl.Insert(v, core.PFN(v))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Lookup(core.VPN(i & 2047)) // 50% miss
	}
}

// TestRepeatCountsMRULookups: after a lookup that hits a page or a fill
// that covers it, Repeat(n) leaves each TLB kind exactly as n more lookups
// of the page would — the same counters and the same entries in the same
// slots. Shootdowns between the steps make sub-entry and CoLT misses.
func TestRepeatCountsMRULookups(t *testing.T) {
	for _, ways := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			g := Geometry{Entries: 64, Ways: ways}
			rng := rand.New(rand.NewSource(int64(ways)))
			van := [2]*Vanilla{NewVanilla(g), NewVanilla(g)}
			mos := [2]*Mosaic{NewMosaic(g, 4), NewMosaic(g, 4)}
			col := [2]*Coalesced{NewCoalesced(g, 4), NewCoalesced(g, 4)}
			for range 5000 {
				vpn := core.VPN(rng.Intn(1024))
				pfn := core.PFN(rng.Intn(64))
				if rng.Intn(4) == 0 {
					for k := range 2 {
						van[k].Invalidate(vpn)
						mos[k].InvalidateSub(vpn)
						col[k].Invalidate(vpn)
					}
					continue
				}
				// A fill always covers the page itself, as a walk's does.
				toc := make(ToC, 4)
				nb := make([]NeighbourPFN, 4)
				for i := range toc {
					toc[i], nb[i] = core.CPFN(rng.Intn(100)), NeighbourPFN{PFN: pfn.Sub(uint64(vpn) % 4).Add(uint64(i)), OK: rng.Intn(2) == 0}
					if rng.Intn(2) == 0 && i != int(vpn%4) {
						toc[i] = core.CPFNInvalid
					}
				}
				n := rng.Intn(4)
				for k := range 2 {
					if _, hit := van[k].Lookup(vpn); !hit {
						van[k].Insert(vpn, pfn)
					}
					if _, hit := mos[k].Lookup(vpn); !hit {
						mos[k].Insert(vpn, toc)
					}
					if _, hit := col[k].Lookup(vpn); !hit {
						col[k].Insert(vpn, pfn, nb)
					}
				}
				for range n {
					van[0].Lookup(vpn)
					mos[0].Lookup(vpn)
					col[0].Lookup(vpn)
				}
				van[1].Repeat(uint64(n))
				mos[1].Repeat(uint64(n))
				col[1].Repeat(uint64(n))
			}
			var contents [2][]string
			for k := range 2 {
				van[k].Range(func(key uint64, pfn core.PFN) { contents[k] = append(contents[k], fmt.Sprintf("v%#x:%d", key, pfn)) })
				mos[k].Range(func(key uint64, toc ToC) { contents[k] = append(contents[k], fmt.Sprintf("m%#x:%v", key, toc)) })
				col[k].tab.each(func(tag uint64, g int32) {
					contents[k] = append(contents[k], fmt.Sprintf("c%#x:%+v", tag, col[k].entries[g]))
				})
			}
			if fmt.Sprint(contents[0]) != fmt.Sprint(contents[1]) {
				t.Errorf("entries after Repeat differ from entries after lookups:\n got  %v\n want %v", contents[1], contents[0])
			}
			for _, c := range []struct {
				name      string
				want, got Stats
			}{
				{"Vanilla", van[0].Stats(), van[1].Stats()},
				{"Mosaic", mos[0].Stats(), mos[1].Stats()},
				{"Coalesced", col[0].Stats(), col[1].Stats()},
			} {
				if c.got != c.want {
					t.Errorf("%s: stats with Repeat %+v, with lookups %+v", c.name, c.got, c.want)
				}
				if c.want.SubMisses == 0 && c.name != "Vanilla" {
					t.Errorf("%s: no sub-entry misses; the steps must leave entries partly valid", c.name)
				}
			}
		})
	}
}
