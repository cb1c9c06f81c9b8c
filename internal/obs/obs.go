// Package obs is the simulator's observability layer: typed metric
// instruments (counters, gauges, log-scaled histograms) behind a named
// registry, a windowed time-series sampler the simulator drives every N
// references, and a structured JSONL event log for rare events (iceberg
// backyard spills, horizon advances, eviction storms, invariant-check
// passes).
//
// The design goals, in order:
//
//  1. Zero cost when disabled. Every consumer holds either a nil *Observer
//     (one pointer compare on the hot path) or direct instrument handles
//     (one integer add per event — no map lookup, no interface call, no
//     allocation).
//  2. Machine readability. Snapshots, series, and events all serialize
//     into the schema-versioned results files (internal/results) that
//     every experiment driver emits next to its text tables.
//  3. Mergeability. Counter and histogram snapshots Merge, so per-shard or
//     per-run observations combine into one report: merging the snapshots
//     of two streams equals the snapshot of the combined stream.
//
// Metric names are lowercase dotted identifiers ("tlb.miss",
// "iceberg.backyard.occupancy"); the mosaiclint obsnames analyzer enforces
// the convention at every call site with a constant name.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"regexp"
	"sort"
)

// nameRE is the metric-name grammar: two or more lowercase dotted segments,
// each starting with a letter ("tlb.miss", "vm.fault.minor").
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$`)

// ValidName reports whether name is a lowercase dotted metric identifier.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// mustValidName panics on a malformed metric name: registration happens at
// construction time, so a bad name is a programming error caught by the
// first test run (and statically by the mosaiclint obsnames analyzer).
func mustValidName(name string) {
	if !ValidName(name) {
		panic(fmt.Sprintf("obs: metric name %q is not a lowercase dotted identifier (want e.g. \"tlb.miss\")", name))
	}
}

// Counter is a monotonically increasing event count. The zero value is
// ready to use; instruments handed out by a Registry are long-lived
// handles, so hot paths pay one integer add per event.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.v += delta }

// Value is the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is an instantaneous value (occupancy, utilization).
type Gauge struct {
	v float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add shifts the value by delta (negative to decrease) — the
// occupancy-style update, so call sites tracking a level do one call
// instead of a read-modify-write Set(g.Value()+delta).
func (g *Gauge) Add(delta float64) { g.v += delta }

// Value is the current value.
func (g *Gauge) Value() float64 { return g.v }

// histBuckets is one bucket per power of two plus one for zero: bucket 0
// counts observations of 0 and bucket k counts values in [2^(k-1), 2^k).
const histBuckets = 65

// Histogram accumulates a distribution of non-negative integer samples
// (latencies in cycles, run lengths) in log-scaled buckets: constant-time
// observation, 65 words of state, and quantile estimates good to a factor
// of two — ample for "did walk latency double mid-run" questions.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    uint64
	min    uint64
	max    uint64
}

// bucketOf maps a sample to its bucket index: 0 for 0, bits.Len64 otherwise.
func bucketOf(v uint64) int { return bits.Len64(v) }

// Observe adds one sample.
func (h *Histogram) Observe(v uint64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.counts[bucketOf(v)]++
}

// Count is the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Counts: h.counts,
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
}

// HistogramSnapshot is an immutable copy of a Histogram.
type HistogramSnapshot struct {
	Counts [histBuckets]uint64
	Count  uint64
	Sum    uint64
	Min    uint64
	Max    uint64
}

// Merge combines another snapshot into this one; the result equals the
// snapshot of the two underlying streams observed by one histogram.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	out := s
	for i := range out.Counts {
		out.Counts[i] += o.Counts[i]
	}
	out.Count += o.Count
	out.Sum += o.Sum
	switch {
	case s.Count == 0:
		out.Min, out.Max = o.Min, o.Max
	case o.Count == 0:
		out.Min, out.Max = s.Min, s.Max
	default:
		out.Min = min(s.Min, o.Min)
		out.Max = max(s.Max, o.Max)
	}
	return out
}

// Mean is the sample mean (zero with no samples).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) from the log buckets,
// interpolating linearly within the matched bucket. With no samples it
// returns NaN.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return float64(s.Min)
	}
	if q >= 1 {
		return float64(s.Max)
	}
	rank := q * float64(s.Count)
	var cum float64
	for b, n := range s.Counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo, hi := bucketBounds(b)
			frac := (rank - cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return float64(s.Max)
}

// bucketBounds returns the [lo, hi) value range of bucket b. The top
// bucket (b = 64) holds samples in [2^63, 2^64); its upper bound does not
// fit a uint64 shift (1<<64 wraps to 0, which would collapse the bucket
// and make Quantile interpolate downward into garbage), so it is clamped
// to MaxUint64.
func bucketBounds(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 0
	}
	if b == 1 {
		return 1, 2
	}
	lo = float64(uint64(1) << uint(b-1))
	if b >= 64 {
		return lo, float64(math.MaxUint64)
	}
	return lo, float64(uint64(1) << uint(b))
}

// Registry is an ordered, named set of instruments. Lookups by name happen
// only at registration time; hot paths hold the returned handles. It is
// not safe for concurrent use (nothing in the simulator is; parallel
// sweeps give every point its own simulator and registry, and only the
// shared Progress line — which is goroutine-safe — crosses workers).
type Registry struct {
	names    []string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating on first use) the named counter. It panics if
// the name is malformed or already names a different instrument kind.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.register(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating on first use) the named gauge. It panics if the
// name is malformed or already names a different instrument kind.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.register(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating on first use) the named histogram. It panics
// if the name is malformed or already names a different instrument kind.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.register(name, "histogram")
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// register validates the name, checks cross-kind uniqueness, and records
// registration order. It panics on conflicts — instrument registration is
// construction, not steady state.
func (r *Registry) register(name, kind string) {
	mustValidName(name)
	_, c := r.counters[name]
	_, g := r.gauges[name]
	_, h := r.hists[name]
	if c || g || h {
		panic(fmt.Sprintf("obs: %q already registered with a different kind than %s", name, kind))
	}
	r.names = append(r.names, name)
}

// Names returns all instrument names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.names...) }

// CounterValue returns the value of a registered counter, or zero if no
// counter has that name — the test-friendly read path.
func (r *Registry) CounterValue(name string) uint64 {
	if c, ok := r.counters[name]; ok {
		return c.v
	}
	return 0
}

// GaugeValue returns the value of a registered gauge, or zero.
func (r *Registry) GaugeValue(name string) float64 {
	if g, ok := r.gauges[name]; ok {
		return g.v
	}
	return 0
}

// Snapshot captures every instrument's current state.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies the registry state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.v
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.v
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// Merge combines another snapshot into a copy of this one: counters and
// histograms add (two shards of one logical stream); gauges keep the other
// snapshot's value when it has one (last-writer-wins, matching gauge
// semantics).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for n, v := range s.Counters {
		out.Counters[n] = v
	}
	for n, v := range o.Counters {
		out.Counters[n] += v
	}
	for n, v := range s.Gauges {
		out.Gauges[n] = v
	}
	for n, v := range o.Gauges {
		out.Gauges[n] = v
	}
	for n, v := range s.Histograms {
		out.Histograms[n] = v
	}
	for n, v := range o.Histograms {
		out.Histograms[n] = out.Histograms[n].Merge(v)
	}
	return out
}

// Flatten renders the snapshot as sorted name→value pairs suitable for a
// metrics map: counters and gauges verbatim, histograms expanded into
// .count/.mean/.p50/.p99/.max pseudo-metrics.
func (s Snapshot) Flatten() []NamedValue {
	out := make([]NamedValue, 0, len(s.Counters)+len(s.Gauges)+5*len(s.Histograms))
	for n, v := range s.Counters {
		out = append(out, NamedValue{Name: n, Value: float64(v)})
	}
	for n, v := range s.Gauges {
		out = append(out, NamedValue{Name: n, Value: v})
	}
	for n, h := range s.Histograms {
		out = append(out,
			NamedValue{Name: n + ".count", Value: float64(h.Count)},
			NamedValue{Name: n + ".mean", Value: h.Mean()},
			NamedValue{Name: n + ".p50", Value: h.Quantile(0.5)},
			NamedValue{Name: n + ".p99", Value: h.Quantile(0.99)},
			NamedValue{Name: n + ".max", Value: float64(h.Max)},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NamedValue is one flattened metric.
type NamedValue struct {
	Name  string
	Value float64
}

// Observer bundles the three observability facilities a component may be
// handed: metric instruments, the time-series sampler, and the structured
// event log. Any field — or the whole Observer — may be nil; every consumer
// must tolerate that, and the helpers below are nil-safe so call sites
// stay unconditional.
type Observer struct {
	Metrics *Registry
	Sampler *Sampler
	Events  *EventLog
}

// NewObserver builds a fully-enabled Observer: a fresh registry, a sampler
// at the given cadence (0 disables sampling), and an in-memory event log
// (attach a writer with Events.SetWriter for streaming JSONL).
func NewObserver(sampleEvery uint64) *Observer {
	o := &Observer{Metrics: NewRegistry(), Events: NewEventLog(nil)}
	if sampleEvery > 0 {
		o.Sampler = NewSampler(sampleEvery)
	}
	return o
}

// Emit forwards an event to the log; nil-safe.
func (o *Observer) Emit(e Event) {
	if o == nil || o.Events == nil {
		return
	}
	o.Events.Emit(e)
}

// Registry returns the metrics registry, or nil; nil-safe.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}
