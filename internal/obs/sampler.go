package obs

import "math"

// Sampler records windowed time series while the simulator runs: the
// driver registers probes (closures over live simulator state), the
// simulator advances it by each run segment's reference count with Tick,
// cutting its segments so that none crosses a window edge, and every
// `every` references the sampler evaluates all probes and appends one
// point per series.
//
// Three probe kinds cover the evaluation's needs:
//
//   - Gauge probes record the probe's instantaneous value (occupancy,
//     utilization, ghost fraction);
//   - Rate probes record the probe's delta over the window divided by the
//     window's reference count (events per reference — swap I/O rate,
//     fault rate);
//   - Ratio probes record delta(num)/delta(den) over the window, times a
//     scale (per-window TLB hit rate, cycles per walk, cache MPKI).
//
// Windows where a ratio's denominator did not move record NaN — "no
// observation", rendered as null in the JSON results — rather than a fake
// zero.
//
// The per-tick cost is two integer additions and one compare; Tick
// allocates nothing. Probe evaluation allocates only via slice append,
// amortized over the run.
type Sampler struct {
	every uint64
	since uint64
	refs  uint64

	probes []probe
	series [][]float64
	marks  []uint64 // reference index of each completed window
}

type probeKind uint8

const (
	probeGauge probeKind = iota
	probeRate
	probeRatio
)

type probe struct {
	name     string
	kind     probeKind
	scale    float64
	num, den func() float64
	prevNum  float64
	prevDen  float64
}

// NewSampler creates a sampler that samples every `every` references. It
// panics if every is zero (use a nil *Sampler to disable sampling).
func NewSampler(every uint64) *Sampler {
	if every == 0 {
		panic("obs: sampler cadence must be positive; use a nil Sampler to disable")
	}
	return &Sampler{every: every}
}

// Gauge registers an instantaneous-value probe. The name must be a
// lowercase dotted identifier, or Gauge panics.
func (s *Sampler) Gauge(name string, fn func() float64) {
	s.add(probe{name: name, kind: probeGauge, num: fn})
}

// Rate registers a per-reference rate probe: each window records
// (fn_now − fn_prev) / window references. The name must be a lowercase
// dotted identifier, or Rate panics.
func (s *Sampler) Rate(name string, fn func() float64) {
	s.add(probe{name: name, kind: probeRate, scale: 1, num: fn})
}

// Ratio registers a windowed-ratio probe: each window records
// scale × Δnum/Δden. Windows with Δden == 0 record NaN. The name must be a
// lowercase dotted identifier, or Ratio panics.
func (s *Sampler) Ratio(name string, scale float64, num, den func() float64) {
	s.add(probe{name: name, kind: probeRatio, scale: scale, num: num, den: den})
}

func (s *Sampler) add(p probe) {
	mustValidName(p.name)
	for _, q := range s.probes {
		if q.name == p.name {
			//lint:ignore nopanic probe registration is configuration; a duplicate name is a programming error caught at wiring time
			panic("obs: duplicate sampler probe " + p.name)
		}
	}
	if p.num != nil {
		p.prevNum = p.num()
	}
	if p.den != nil {
		p.prevDen = p.den()
	}
	s.probes = append(s.probes, p)
	s.series = append(s.series, nil)
}

// Left is the number of references before the current window's edge,
// at least one.
func (s *Sampler) Left() uint64 { return s.every - s.since }

// Tick advances the reference clock by n references and samples when the
// window's edge is reached. n must not exceed Left: a caller running
// references in segments ends a segment at the edge, so every probe reads
// the state of exactly the window's last reference.
func (s *Sampler) Tick(n uint64) {
	s.refs += n
	s.since += n
	if s.since >= s.every {
		s.since = 0
		s.sample()
	}
}

// Flush samples any partial window so short runs still end with a point.
// It is a no-op if the current window is empty.
func (s *Sampler) Flush() {
	if s.since == 0 {
		return
	}
	window := s.since
	s.since = 0
	s.samplePartial(window)
}

func (s *Sampler) sample() { s.samplePartial(s.every) }

func (s *Sampler) samplePartial(window uint64) {
	s.marks = append(s.marks, s.refs)
	for i := range s.probes {
		p := &s.probes[i]
		var v float64
		switch p.kind {
		case probeGauge:
			v = p.num()
		case probeRate:
			cur := p.num()
			v = p.scale * (cur - p.prevNum) / float64(window)
			p.prevNum = cur
		case probeRatio:
			num, den := p.num(), p.den()
			dNum, dDen := num-p.prevNum, den-p.prevDen
			p.prevNum, p.prevDen = num, den
			if dDen == 0 {
				v = math.NaN()
			} else {
				v = p.scale * dNum / dDen
			}
		}
		s.series[i] = append(s.series[i], v)
	}
}

// Series is one sampled time series: Refs[i] is the reference index at the
// end of window i, Values[i] the window's sampled value.
type Series struct {
	Name   string
	Refs   []uint64
	Values []float64
}

// Series returns a copy of every sampled series, in registration order.
func (s *Sampler) Series() []Series {
	out := make([]Series, len(s.probes))
	for i, p := range s.probes {
		out[i] = Series{
			Name:   p.name,
			Refs:   append([]uint64(nil), s.marks...),
			Values: append([]float64(nil), s.series[i]...),
		}
	}
	return out
}
