package memsim

// End-to-end translation correctness: the CPFN a mosaic TLB hit returns
// must decode — via the page's bucket choices, exactly as the hardware's
// hash units would — to the same physical frame the OS placed the page in.
// This closes the loop across vm, alloc, pagetable, and tlb: a bug in any
// CPFN hand-off (page table leaf, ToC fill, sub-page indexing) breaks it.

import (
	"bytes"
	"math/rand"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
	"mosaic/internal/vm"
	"mosaic/internal/xxhash"
)

func TestMosaicTLBHitDecodesToOSFrame(t *testing.T) {
	const seed = 11
	osys, err := vm.New(vm.Config{Frames: 1 << 14, Mode: vm.ModeMosaic, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	// The hardware-side decoder: the same placement hash the OS allocator
	// uses, applied to (ASID, VPN) and the stored CPFN.
	hash := xxhash.NewPlacement(seed)
	geom := core.DefaultGeometry
	numBuckets := uint64((1 << 14) / geom.BucketSize())
	buckets := make([]uint64, geom.HashCount())
	decode := func(asid core.ASID, vpn core.VPN, c core.CPFN) core.PFN {
		geom.Buckets(hash, asid, vpn, numBuckets, buckets)
		return geom.FrameFor(c, buckets)
	}

	mtlb := tlb.NewMosaic(tlb.Geometry{Entries: 64, Ways: 8}, 4)
	rng := rand.New(rand.NewSource(3))
	checked := 0
	for i := 0; i < 50000; i++ {
		vpn := core.VPN(rng.Intn(4000))
		osys.Touch(1, vpn, rng.Intn(3) == 0)

		cpfn, hit := mtlb.Lookup(vpn)
		if !hit {
			// Fill the ToC like the walker: one CPFN per mapped sub-page.
			mvpn, _ := core.MosaicPage(vpn, 4)
			toc := mtlb.InvalidToC()
			for off := 0; off < 4; off++ {
				sub := core.BaseVPN(mvpn, 4, off)
				if c, ok := osys.CPFNFor(1, sub); ok {
					toc[off] = c
				}
			}
			mtlb.Insert(vpn, toc)
			cpfn, hit = mtlb.Lookup(vpn)
			if !hit {
				t.Fatalf("miss immediately after fill for VPN %#x", vpn)
			}
		}
		// The TLB's CPFN must decode to the OS's frame — unless the OS
		// remapped the page since the fill (stale entry), which cannot
		// happen here because memory is ample (no evictions).
		want, ok := osys.Translate(1, vpn)
		if !ok {
			t.Fatalf("page %#x not resident", vpn)
		}
		if got := decode(1, vpn, cpfn); got != want {
			t.Fatalf("VPN %#x: TLB CPFN %d decodes to frame %d, OS has %d", vpn, cpfn, got, want)
		}
		checked++
	}
	if osys.Device().TotalIO() != 0 {
		t.Fatal("evictions occurred; stale-entry caveat violated")
	}
	if checked != 50000 {
		t.Fatalf("checked %d translations", checked)
	}
}

func TestHWEncodingSurvivesFullPath(t *testing.T) {
	// The 7-bit hardware encoding round-trips every CPFN the OS ever
	// produces under heavy allocation churn.
	osys, err := vm.New(vm.Config{Frames: 1 << 12, Mode: vm.ModeMosaic, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	geom := core.DefaultGeometry
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 30000; i++ {
		vpn := core.VPN(rng.Intn(5000)) // oversubscribed: evictions happen
		osys.Touch(1, vpn, true)
		if c, ok := osys.CPFNFor(1, vpn); ok {
			raw := geom.EncodeHW(c)
			if raw > 0x7F {
				t.Fatalf("CPFN %d encodes beyond 7 bits: %#x", c, raw)
			}
			if back := geom.DecodeHW(raw); back != c {
				t.Fatalf("hardware round trip %d -> %#x -> %d", c, raw, back)
			}
		}
	}
}

// TestVALimit: the page tables index 36-bit VPNs and TLB tags hold the
// ASID above VPN bit 40, so the highest page below VALimit translates to
// its own frame alongside a low page, CheckBatch refuses the first VA at
// the limit, and a reference there panics rather than aliasing another
// page's entries.
func TestVALimit(t *testing.T) {
	const low, high = 0x10000000, VALimit - core.PageSize
	if err := CheckBatch(trace.Batch{trace.MakeRef(low, false), trace.MakeRef(VALimit-1, true)}); err != nil {
		t.Fatalf("CheckBatch refused VAs below the limit: %v", err)
	}
	if err := CheckBatch(trace.Batch{trace.MakeRef(low, false), trace.MakeRef(VALimit, false)}); err == nil {
		t.Fatal("CheckBatch accepted a VA at the limit")
	}
	s := newSim(t, Config{Frames: 1 << 12, Specs: specs(64, 8, 4), CheckEvery: 1})
	s.Access(low, false)
	s.Access(high, false)
	s.FlushTLBs()
	s.Access(low, false) // walks again: must fill its own frame
	s.Access(high, false)
	for _, va := range []uint64{low, high} {
		want, _ := s.os.Translate(s.cfg.ASID, core.VPNOf(va))
		got, hit := s.units[0].(*vanillaUnit).tlb.Lookup(taggedVPN(s.cfg.ASID, core.VPNOf(va)))
		if !hit || got != want {
			t.Errorf("VA %#x: TLB holds frame %d (hit %v), the OS maps %d", va, got, hit, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a reference at VALimit ran")
		}
	}()
	s.Access(VALimit, false)
}

// TestASIDLimit: TLB tags hold the ASID above VPN bit 40, so only ASIDs
// below ASIDLimit keep their entries apart. The highest one still misses
// where ASID 1 has an entry for the same VA; New and ReplayFrom refuse
// ASIDLimit with an error, and AccessFrom and ProcessBatchFrom panic on
// an ASID that would share ASID 1's tags rather than hit its entries.
func TestASIDLimit(t *testing.T) {
	cfg := Config{Frames: 1 << 12, Specs: specs(64, 8, 4), CheckEvery: 1}
	for _, asid := range []core.ASID{ASIDLimit, ASIDLimit + 1, 1<<32 - 1} {
		bad := cfg
		bad.ASID = asid
		if _, err := New(bad); err == nil {
			t.Errorf("New accepted ASID %d", asid)
		}
	}
	const va = 0x10000000
	s := newSim(t, cfg)
	s.AccessFrom(1, va, false)
	s.AccessFrom(ASIDLimit-1, va, false)
	for _, r := range s.Results() {
		if r.TLB.Hits != 0 || r.TLB.Misses != 2 {
			t.Errorf("%s: ASIDs 1 and %d at one VA gave %d hits, %d misses; want 0 and 2", r.Spec.Label(), ASIDLimit-1, r.TLB.Hits, r.TLB.Misses)
		}
	}

	var buf bytes.Buffer
	w, err := trace.NewBatchWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(trace.Batch{trace.MakeRef(va, false)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewBatchReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.ReplayFrom(1+ASIDLimit, r); err == nil || n != 0 {
		t.Errorf("ReplayFrom(%d) ran %d references, error %v; want none and an error", 1+ASIDLimit, n, err)
	}

	for name, run := range map[string]func(){
		"AccessFrom":       func() { s.AccessFrom(1+ASIDLimit, va, false) },
		"ProcessBatchFrom": func() { s.ProcessBatchFrom(1+ASIDLimit, trace.Batch{trace.MakeRef(va, false)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of ASID %d ran", name, 1+ASIDLimit)
				}
			}()
			run()
		}()
	}
	if c := s.OS().Clock(); c != 2 {
		t.Errorf("OS clock %d after the refused references, want 2", c)
	}
}
