package memsim

import (
	"fmt"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/obs"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
	"mosaic/internal/workloads"
)

// TestObservabilityEndToEnd drives a small simulation with the full
// observer bundle attached and checks that every layer reported in:
// shared vm.* counters, sampler series for each unit, finalized
// tlb.<design>.* breakdowns, and at least one structured event.
func TestObservabilityEndToEnd(t *testing.T) {
	ob := obs.NewObserver(256)
	s := newSim(t, Config{
		Frames:     1 << 16,
		Specs:      specs(64, 8, 4),
		CheckEvery: 512,
		Obs:        ob,
	})
	const refs = 2048
	for i := 0; i < refs; i++ {
		s.Access(uint64(workloads.DefaultHeapBase)+uint64(i%256)*core.PageSize, false)
	}
	m := s.FinalizeMetrics()

	if got := m.CounterValue("vm.access"); got != refs {
		t.Errorf("vm.access = %d, want %d", got, refs)
	}
	if m.CounterValue("vm.fault.minor") == 0 {
		t.Error("vm.fault.minor = 0, want > 0 (cold pages were touched)")
	}

	// Finalized per-unit breakdown, one namespace per design point.
	for _, p := range []string{"tlb.vanilla", "tlb.mosaic_4"} {
		hits, misses := m.CounterValue(p+".hit"), m.CounterValue(p+".miss")
		if hits+misses != refs {
			t.Errorf("%s: hit+miss = %d, want %d", p, hits+misses, refs)
		}
	}

	// Sampler recorded full windows for every per-unit probe.
	sp := s.Sampler()
	if sp == nil {
		t.Fatal("Sampler() = nil with observer attached")
	}
	series := make(map[string]obs.Series)
	for _, sr := range sp.Series() {
		series[sr.Name] = sr
	}
	for _, name := range []string{"tlb.vanilla.hit_rate", "tlb.mosaic_4.hit_rate", "vm.utilization", "vm.fault.rate"} {
		sr, ok := series[name]
		if !ok {
			t.Errorf("sampler missing series %q", name)
			continue
		}
		if n := len(sr.Values); n != refs/256 || sr.Refs[n-1] != refs {
			t.Errorf("%s: windows end at %v, want %d windows ending at %d", name, sr.Refs, refs/256, refs)
		}
	}
	// The second round re-touches the same 256 pages; mosaic-4's window
	// hit rate must reach 1 at some point while vanilla (64-entry reach
	// over a 256-page set) keeps missing.
	mhr := series["tlb.mosaic_4.hit_rate"].Values
	if mhr[len(mhr)-1] != 1 {
		t.Errorf("mosaic_4 final window hit rate = %v, want 1", mhr[len(mhr)-1])
	}

	// CheckEvery fired 4 times; each pass logs an invariant.pass event.
	var passes int
	for _, e := range ob.Events.Events() {
		if e.Kind == "invariant.pass" {
			passes++
			if e.Fields["checks"] <= 0 {
				t.Errorf("invariant.pass event with %v checks", e.Fields["checks"])
			}
		}
	}
	if passes != refs/512 {
		t.Errorf("invariant.pass events = %d, want %d", passes, refs/512)
	}
}

// TestSampledSpecsNeedDistinctLabels: a sampler names each unit's series
// after its label, so two units with one label are a configuration error
// with a sampler attached (New used to panic registering the second
// series) and fine without one.
func TestSampledSpecsNeedDistinctLabels(t *testing.T) {
	twoMosaic4 := []TLBSpec{
		{Geometry: tlb.Geometry{Entries: 64, Ways: 8}, Arity: 4},
		{Geometry: tlb.Geometry{Entries: 64, Ways: 64}, Arity: 4},
	}
	if _, err := New(Config{Frames: 1 << 12, Specs: twoMosaic4, Obs: obs.NewObserver(1000)}); err == nil {
		t.Error("sampled run with two Mosaic-4 units accepted")
	}
	if _, err := New(Config{Frames: 1 << 12, Specs: twoMosaic4, Obs: obs.NewObserver(0)}); err != nil {
		t.Errorf("unsampled run with two Mosaic-4 units: %v", err)
	}
}

// TestFinalizeMetricsIdempotent guards against double-counting when a
// driver calls FinalizeMetrics more than once (e.g. once for the JSON
// result and once for the text table).
func TestFinalizeMetricsIdempotent(t *testing.T) {
	s := newSim(t, Config{Frames: 1 << 16, Specs: specs(64, 8)})
	for i := 0; i < 100; i++ {
		s.Access(uint64(workloads.DefaultHeapBase)+uint64(i)*core.PageSize, false)
	}
	first := s.FinalizeMetrics().CounterValue("tlb.vanilla.miss")
	second := s.FinalizeMetrics().CounterValue("tlb.vanilla.miss")
	if first == 0 || first != second {
		t.Errorf("tlb.vanilla.miss after 1st/2nd finalize = %d/%d, want equal and nonzero", first, second)
	}
}

// TestHotPathZeroAllocs pins the acceptance criterion that the reference
// path — single Access calls and batches — allocates nothing once the
// working set is faulted in and no sampler/event log is attached (the
// default for library use).
func TestHotPathZeroAllocs(t *testing.T) {
	t.Run("access", func(t *testing.T) {
		s := newSim(t, Config{Frames: 1 << 16, Specs: specs(64, 8, 4)})
		const pages = 64
		for p := 0; p < pages; p++ {
			s.Access(uint64(workloads.DefaultHeapBase)+uint64(p)*core.PageSize, false)
		}
		var p int
		avg := testing.AllocsPerRun(1000, func() {
			s.Access(uint64(workloads.DefaultHeapBase)+uint64(p%pages)*core.PageSize, false)
			p++
		})
		if avg != 0 {
			t.Errorf("steady-state Access allocates %v objects/op, want 0", avg)
		}
	})

	// The miss path: TLB fills, page-table walks, the walk cache and the
	// cache hierarchy. Pages sit 16 apart, so each one has its own
	// Mosaic-16, Mosaic-4 and CoLT-4 entry, and cycling through 4,096 of
	// them misses every unit at every associativity.
	const pages, stride, batch = 4096, 16, 512
	refs := make(trace.Batch, pages)
	for i := range refs {
		refs[i] = trace.MakeRef(uint64(workloads.DefaultHeapBase)+uint64(i*stride)*core.PageSize, false)
	}
	for _, ways := range []int{1, 8, 256} {
		for _, extras := range []bool{false, true} {
			t.Run(fmt.Sprintf("miss/ways=%d/caches=%v", ways, extras), func(t *testing.T) {
				g := tlb.Geometry{Entries: 256, Ways: ways}
				s := newSim(t, Config{
					Frames:          1 << 16,
					EnableCaches:    extras,
					EnableWalkCache: extras,
					Specs: []TLBSpec{
						{Geometry: g},
						{Geometry: g, Coalesce: 4},
						{Geometry: g, Arity: 4},
						{Geometry: g, Arity: 16},
					},
				})
				s.ProcessBatch(refs) // fault the working set in
				before := s.Results()
				next := 0
				avg := testing.AllocsPerRun(16, func() {
					s.ProcessBatch(refs[next : next+batch])
					next = (next + batch) % pages
				})
				if avg != 0 {
					t.Errorf("ProcessBatch of %d missing refs allocates %v objects/op, want 0", batch, avg)
				}
				for i, r := range s.Results() {
					lookups := r.TLB.Lookups() - before[i].TLB.Lookups()
					if misses := r.TLB.Misses - before[i].TLB.Misses; misses != lookups {
						t.Errorf("%s: %d of %d lookups hit; every lookup must miss", r.Spec.Label(), lookups-misses, lookups)
					}
				}
			})
		}
	}
}

// Paired benchmarks of single-reference Access with and without a sampler
// attached at the default fig6 cadence.
func benchAccess(b *testing.B, ob *obs.Observer) {
	s, err := New(Config{Frames: 1 << 16, Specs: specs(64, 8, 4), Obs: ob})
	if err != nil {
		b.Fatal(err)
	}
	const pages = 512
	for p := 0; p < pages; p++ {
		s.Access(uint64(workloads.DefaultHeapBase)+uint64(p)*core.PageSize, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(uint64(workloads.DefaultHeapBase)+uint64(i%pages)*core.PageSize, false)
	}
}

func BenchmarkAccessNoObs(b *testing.B)   { benchAccess(b, nil) }
func BenchmarkAccessSampled(b *testing.B) { benchAccess(b, obs.NewObserver(65536)) }
