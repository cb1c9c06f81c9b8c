package mosaic

import (
	"bytes"
	"strings"
	"testing"

	"mosaic/internal/trace"
)

func TestMultiprogramShape(t *testing.T) {
	opts := MultiprogramOptions{
		Workloads:      []string{"gups", "kvstore"},
		FootprintBytes: 4 << 20,
		MaxRefsPerProc: 400_000,
		Seed:           2,
	}
	tagged, refs, err := Multiprogram(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Each stream is capped at 400k but may end sooner (kvstore's op count
	// is footprint-proportional).
	if refs == 0 || refs > 2*400_000 {
		t.Fatalf("total refs = %d", refs)
	}
	if len(tagged) != 3 { // vanilla + 2 arities
		t.Fatalf("results = %d", len(tagged))
	}
	byLabel := map[string]MultiprogramResult{}
	for _, r := range tagged {
		if r.SharedMisses == 0 || r.SoloMisses == 0 {
			t.Fatalf("%s: zero misses (%+v)", r.Label, r)
		}
		// Sharing a TLB can only hurt (or leave unchanged): interference
		// must not be meaningfully negative.
		if r.InterferencePct < -1 {
			t.Errorf("%s: negative interference %.2f%%", r.Label, r.InterferencePct)
		}
		byLabel[r.Label] = r
	}
	// Mosaic still wins under multiprogramming.
	if byLabel["Mosaic-4"].SharedMisses >= byLabel["Vanilla"].SharedMisses {
		t.Errorf("Mosaic-4 shared misses %d ≥ vanilla %d",
			byLabel["Mosaic-4"].SharedMisses, byLabel["Vanilla"].SharedMisses)
	}

	flushOpts := opts
	flushOpts.FlushOnSwitch = true
	flushed, _, err := Multiprogram(flushOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range flushed {
		// Flushing on every switch can only increase misses vs tagging.
		if r.SharedMisses < tagged[i].SharedMisses {
			t.Errorf("%s: flushed run has fewer misses (%d) than tagged (%d)",
				r.Label, r.SharedMisses, tagged[i].SharedMisses)
		}
	}
	t.Logf("tagged: %+v", tagged)
	t.Logf("flushed: %+v", flushed)
}

func TestMultiprogramValidation(t *testing.T) {
	if _, _, err := Multiprogram(MultiprogramOptions{Workloads: []string{"gups"}}); err == nil {
		t.Error("single workload accepted")
	}
	if _, _, err := Multiprogram(MultiprogramOptions{Workloads: []string{"gups", "nope"}}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestMultiprogramRejectsTinyFootprint: three workloads get memory for
// four times their footprints, and a footprint under 22 528 bytes (88
// quarter-pages) leaves less than one 64-frame bucket. MultiprogramOptions
// rejects it naming FootprintBytes and the least it accepts, not with the
// OS layer's frame count, which the caller never set.
func TestMultiprogramRejectsTinyFootprint(t *testing.T) {
	opt := MultiprogramOptions{Workloads: []string{"gups", "xsbench", "kvstore"}, MaxRefsPerProc: 2000, Workers: 1}
	for _, fp := range []uint64{1, 12_346, 22_527} {
		opt.FootprintBytes = fp
		_, _, err := Multiprogram(opt)
		if err == nil || !strings.Contains(err.Error(), "FootprintBytes") || !strings.Contains(err.Error(), "at least 22528") {
			t.Errorf("footprint %d: err = %v, want one naming FootprintBytes and its least value 22528", fp, err)
		}
	}
	opt.FootprintBytes = 22_528
	if _, _, err := Multiprogram(opt); err != nil {
		t.Errorf("footprint 22528: %v", err)
	}
}

func TestMultiprogramASIDIsolationInTLB(t *testing.T) {
	// Two processes touching the same virtual pages must not alias in the
	// tagged TLB: build a simulator directly and interleave identical VAs
	// from two ASIDs; translations must differ.
	sim, err := NewSimulator(SimConfig{
		Frames: 1 << 14,
		Specs:  []TLBSpec{{Geometry: TLBGeometry{Entries: 64, Ways: 8}}},
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const va = 0x10000000
	sim.AccessFrom(1, va, true)
	sim.AccessFrom(2, va, true)
	p1, ok1 := sim.OS().Translate(1, 0x10000)
	p2, ok2 := sim.OS().Translate(2, 0x10000)
	if !ok1 || !ok2 {
		t.Fatal("pages not resident")
	}
	if p1 == p2 {
		t.Fatal("ASIDs share a frame without sharing")
	}
	// Re-touch both: each must hit its own tagged entry (no cross-ASID
	// eviction of a 2-entry working set in a 64-entry TLB, and no stale
	// translation reuse).
	sim.AccessFrom(1, va, false)
	sim.AccessFrom(2, va, false)
	r := sim.Results()[0]
	if r.TLB.Hits != 2 || r.TLB.Misses != 2 {
		t.Fatalf("tagged TLB stats = %+v, want 2 hits / 2 misses", r.TLB)
	}
}

func TestFlushTLBs(t *testing.T) {
	sim, err := NewSimulator(SimConfig{
		Frames: 1 << 14,
		Specs: []TLBSpec{
			{Geometry: TLBGeometry{Entries: 64, Ways: 8}},
			{Geometry: TLBGeometry{Entries: 64, Ways: 8}, Arity: 4},
			{Geometry: TLBGeometry{Entries: 64, Ways: 8}, Coalesce: 4},
		},
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Access(0x10000000, false)
	sim.Access(0x10000000, false) // hits
	sim.FlushTLBs()
	sim.Access(0x10000000, false) // must miss again everywhere
	for _, r := range sim.Results() {
		if r.TLB.Misses != 2 {
			t.Errorf("%s: misses = %d, want 2 (cold + post-flush)", r.Spec.Label(), r.TLB.Misses)
		}
		if r.TLB.Hits != 1 {
			t.Errorf("%s: hits = %d, want 1", r.Spec.Label(), r.TLB.Hits)
		}
	}
	if sim.Metrics().CounterValue("tlb.flush") != 1 {
		t.Errorf("flush counter = %d", sim.Metrics().CounterValue("tlb.flush"))
	}
}

// TestReplayRejectsVAsAboveLimit: the simulator's page tables index 36-bit
// VPNs and its TLB tags hold the ASID above VPN bit 40, so a captured
// stream with a VA at or above 2^48 used to alias another page's entries
// (a walk for 0x10000000 returned the frame of 0x10000000|1<<48). Both
// multiprogram replay paths must refuse such a frame before running any
// reference of it.
func TestReplayRejectsVAsAboveLimit(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewBatchWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(trace.Batch{trace.MakeRef(0x10000000, false), trace.MakeRef(0x10000000|1<<48, false)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	newSim := func() *Simulator {
		sim, err := NewSimulator(SimConfig{Frames: 1 << 12, Specs: []TLBSpec{{Geometry: TLBGeometry{Entries: 64, Ways: 8}}}})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	sim := newSim()
	if err := replayStream(buf.Bytes(), sim, 1); err == nil {
		t.Error("whole-stream replay accepted a VA at 2^48")
	}
	if n := sim.OS().Clock(); n != 0 {
		t.Errorf("whole-stream replay ran %d references of the refused frame", n)
	}
	r, err := trace.NewBatchReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sim = newSim()
	q := &quantumStream{r: r}
	if _, err := q.replayQuantum(sim, 1, 1); err == nil {
		t.Error("quantum replay accepted a VA at 2^48")
	}
	if n := sim.OS().Clock(); n != 0 {
		t.Errorf("quantum replay ran %d references of the refused frame", n)
	}
}

// FuzzMultiprogramOptions: lists of zero to three workloads (unknown names
// too), footprints of at most 1 MiB, streams of at most 20k references,
// odd, zero and wrapped-negative quanta, TLB sizes and arities that are
// zero, negative, odd or oversized, and worker counts either finish with
// one result per design or return an error, never panic.
func FuzzMultiprogramOptions(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(1), uint8(2), uint32(1<<20), uint16(5000), int16(997), int8(64), int8(8), int8(4), int8(16), uint8(2), false, false)
	f.Add(uint8(0), uint8(5), uint8(2), uint8(3), uint32(4096), uint16(1), int16(0), int8(0), int8(0), int8(0), int8(0), uint8(0), true, true)
	f.Add(uint8(1), uint8(3), uint8(0), uint8(2), uint32(12345), uint16(19999), int16(-1), int8(-8), int8(3), int8(-4), int8(3), uint8(1), false, true)
	f.Add(uint8(2), uint8(2), uint8(2), uint8(3), uint32(1), uint16(300), int16(1), int8(7), int8(7), int8(64), int8(127), uint8(2), true, false)
	f.Add(uint8(3), uint8(4), uint8(4), uint8(2), uint32(0), uint16(0), int16(33), int8(16), int8(-1), int8(2), int8(1), uint8(2), false, false)
	f.Add(uint8(3), uint8(1), uint8(4), uint8(3), uint32(12345), uint16(2000), int16(500), int8(0), int8(0), int8(0), int8(0), uint8(0), false, false)
	names := []string{"graph500", "xsbench", "btree", "gups", "kvstore", "nosuch"}
	f.Fuzz(func(t *testing.T, wl1, wl2, wl3, nWl uint8, footprint uint32, maxRefs uint16, quantum int16, entries, ways, ar1, ar2 int8, nAr uint8, flush, twoWorkers bool) {
		opt := MultiprogramOptions{
			Workloads:      []string{names[int(wl1)%len(names)], names[int(wl2)%len(names)], names[int(wl3)%len(names)]}[:nWl%4],
			FootprintBytes: uint64(footprint)%(1<<20) + 1,
			QuantumRefs:    uint64(int64(quantum)),
			MaxRefsPerProc: uint64(maxRefs)%20_000 + 1,
			TLBEntries:     int(entries),
			Ways:           int(ways),
			Arities:        []int{int(ar1), int(ar2)}[:nAr%3],
			FlushOnSwitch:  flush,
			Seed:           uint64(footprint),
			Workers:        1,
		}
		if twoWorkers {
			opt.Workers = 2
		}
		res, refs, err := Multiprogram(opt)
		if err != nil {
			return
		}
		if err := opt.applyDefaults(); err != nil {
			t.Fatalf("Multiprogram accepted options its defaults reject: %v", err)
		}
		if want := 1 + len(opt.Arities); len(res) != want {
			t.Fatalf("%d results, want %d", len(res), want)
		}
		if refs == 0 || refs > uint64(len(opt.Workloads))*opt.MaxRefsPerProc {
			t.Fatalf("%d references from %d streams of at most %d", refs, len(opt.Workloads), opt.MaxRefsPerProc)
		}
		for _, r := range res {
			if r.SharedMisses > refs || r.SoloMisses > refs {
				t.Fatalf("%+v: more misses than the %d references", r, refs)
			}
		}
	})
}
