package obs

import (
	"math"
	"testing"
)

func TestSamplerWindows(t *testing.T) {
	s := NewSampler(10)
	var hits, lookups float64
	var occupancy float64
	s.Gauge("iceberg.frontyard.occupancy", func() float64 { return occupancy })
	s.Rate("swap.io.rate", func() float64 { return hits })
	s.Ratio("tlb.hit_rate", 1, func() float64 { return hits }, func() float64 { return lookups })

	for i := 0; i < 25; i++ {
		lookups++
		if i%2 == 0 {
			hits++
		}
		occupancy = float64(i)
		s.Tick(1)
	}
	points := func() int { return len(s.Series()[0].Values) }
	if points() != 2 {
		t.Fatalf("points = %d, want 2 completed windows", points())
	}
	s.Flush()
	if points() != 3 {
		t.Fatalf("points after flush = %d, want 3", points())
	}
	s.Flush() // second flush of an empty window is a no-op
	if points() != 3 {
		t.Fatalf("points after redundant flush = %d, want 3", points())
	}

	series := s.Series()
	if len(series) != 3 {
		t.Fatalf("series count = %d, want 3", len(series))
	}
	byName := map[string]Series{}
	for _, sr := range series {
		byName[sr.Name] = sr
	}

	g := byName["iceberg.frontyard.occupancy"]
	if g.Refs[0] != 10 || g.Refs[1] != 20 || g.Refs[2] != 25 {
		t.Fatalf("gauge refs = %v, want [10 20 25]", g.Refs)
	}
	// Gauge samples the instantaneous value at the window edge (i=9, 19, 24).
	if g.Values[0] != 9 || g.Values[1] != 19 || g.Values[2] != 24 {
		t.Fatalf("gauge values = %v, want [9 19 24]", g.Values)
	}

	r := byName["swap.io.rate"]
	// hits advance by 5 per 10-ref window → rate 0.5; final partial window
	// has 5 refs and 3 hits (i=20,22,24) → 0.6.
	if r.Values[0] != 0.5 || r.Values[1] != 0.5 || r.Values[2] != 0.6 {
		t.Fatalf("rate values = %v, want [0.5 0.5 0.6]", r.Values)
	}

	h := byName["tlb.hit_rate"]
	if h.Values[0] != 0.5 || h.Values[1] != 0.5 || h.Values[2] != 0.6 {
		t.Fatalf("ratio values = %v, want [0.5 0.5 0.6]", h.Values)
	}
}

// TestSamplerTickChunks: advancing in chunks that end at or before each
// window edge records the same series as advancing one reference at a
// time, with Left counting down to the edge.
func TestSamplerTickChunks(t *testing.T) {
	run := func(chunk func(i uint64) uint64) []Series {
		s := NewSampler(7)
		var refs float64
		s.Rate("x.rate", func() float64 { return refs * refs })
		for i := uint64(0); i < 40; {
			n := min(chunk(i), s.Left(), 40-i)
			left := s.Left()
			refs += float64(n)
			s.Tick(n)
			if n < left && s.Left() != left-n {
				t.Fatalf("after Tick(%d) Left = %d, want %d", n, s.Left(), left-n)
			}
			i += n
		}
		s.Flush()
		return s.Series()
	}
	want := run(func(uint64) uint64 { return 1 })
	got := run(func(i uint64) uint64 { return i%5 + 1 })
	if len(got[0].Values) != 6 || len(want[0].Values) != 6 {
		t.Fatalf("points = %d and %d, want 6 (five full windows and a partial one)", len(got[0].Values), len(want[0].Values))
	}
	for i := range want[0].Values {
		if got[0].Refs[i] != want[0].Refs[i] || got[0].Values[i] != want[0].Values[i] {
			t.Fatalf("window %d: chunked (%d, %v), per-reference (%d, %v)",
				i, got[0].Refs[i], got[0].Values[i], want[0].Refs[i], want[0].Values[i])
		}
	}
}

func TestSamplerRatioNaNOnIdleDenominator(t *testing.T) {
	s := NewSampler(5)
	var num, den float64
	s.Ratio("cache.mpki", 1000, func() float64 { return num }, func() float64 { return den })
	for i := 0; i < 5; i++ {
		s.Tick(1)
	}
	v := s.Series()[0].Values[0]
	if !math.IsNaN(v) {
		t.Fatalf("idle-denominator ratio = %v, want NaN", v)
	}
	num, den = 3, 1000
	for i := 0; i < 5; i++ {
		s.Tick(1)
	}
	v = s.Series()[0].Values[1]
	if v != 3 { // 1000 × 3/1000
		t.Fatalf("scaled ratio = %v, want 3", v)
	}
}

func TestSamplerProbeRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero cadence", func() { NewSampler(0) })
	s := NewSampler(10)
	mustPanic("bad name", func() { s.Gauge("BadName", func() float64 { return 0 }) })
	s.Gauge("a.b", func() float64 { return 0 })
	mustPanic("duplicate", func() { s.Rate("a.b", func() float64 { return 0 }) })
}

func TestSamplerBaselineCapturedAtRegistration(t *testing.T) {
	// Counters that already have history when the probe registers must not
	// pollute the first window.
	s := NewSampler(4)
	v := 100.0
	s.Rate("x.y", func() float64 { return v })
	v = 104
	for i := 0; i < 4; i++ {
		s.Tick(1)
	}
	if got := s.Series()[0].Values[0]; got != 1 {
		t.Fatalf("first-window rate = %v, want 1 (delta 4 over 4 refs)", got)
	}
}

// BenchmarkSamplerTick guards the hot-path cost of an enabled sampler.
func BenchmarkSamplerTick(b *testing.B) {
	s := NewSampler(1 << 62) // never fires: isolates the per-tick cost
	s.Gauge("a.b", func() float64 { return 0 })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Tick(1)
	}
}

// BenchmarkSamplerDisabled guards the disabled path: one nil compare.
func BenchmarkSamplerDisabled(b *testing.B) {
	var s *Sampler
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s != nil {
			s.Tick(1)
		}
	}
}
