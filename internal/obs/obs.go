// Package obs is the simulator's observability layer: typed metric
// instruments (counters and gauges) behind a named registry, a windowed
// time-series sampler the simulator advances at segment edges, and a
// bounded log of rare structured events (first iceberg conflict, horizon
// advances, eviction storms, invariant-check passes). Everything it
// records ends up in a results file (internal/results).
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
//  3. Mergeability. Snapshots Merge, so per-run observations combine into
//     one report: counters add and gauges keep the last writer's value.
//
// Metric names are lowercase dotted identifiers ("tlb.miss",
// "iceberg.backyard.occupancy"); the mosaiclint obsnames analyzer enforces
// the convention at every call site with a constant name.
package obs

import (
	"fmt"
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

// Registry is an ordered, named set of instruments. Lookups by name happen
// only at registration time; hot paths hold the returned handles. It is
// not safe for concurrent use (nothing in the simulator is; parallel
// sweeps give every point its own simulator and registry, and only the
// shared Progress line — which is goroutine-safe — crosses workers).
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
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

// register validates the name and checks cross-kind uniqueness. It panics
// on conflicts — instrument registration is construction, not steady
// state.
func (r *Registry) register(name, kind string) {
	mustValidName(name)
	_, c := r.counters[name]
	_, g := r.gauges[name]
	if c || g {
		panic(fmt.Sprintf("obs: %q already registered with a different kind than %s", name, kind))
	}
}

// CounterValue returns the value of a registered counter, or zero if no
// counter has that name — the test-friendly read path.
func (r *Registry) CounterValue(name string) uint64 {
	if c, ok := r.counters[name]; ok {
		return c.v
	}
	return 0
}

// Snapshot captures every instrument's current state.
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]float64
}

// Snapshot copies the registry state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.v
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.v
	}
	return s
}

// Merge combines another snapshot into a copy of this one: counters add
// (two shards of one logical stream); gauges keep the other snapshot's
// value when it has one (last-writer-wins, matching gauge semantics).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)),
		Gauges:   make(map[string]float64, len(s.Gauges)),
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
	return out
}

// Flatten renders the snapshot as name→value pairs sorted by name,
// suitable for a metrics map.
func (s Snapshot) Flatten() []NamedValue {
	out := make([]NamedValue, 0, len(s.Counters)+len(s.Gauges))
	for n, v := range s.Counters {
		out = append(out, NamedValue{Name: n, Value: float64(v)})
	}
	for n, v := range s.Gauges {
		out = append(out, NamedValue{Name: n, Value: v})
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
// handed: metric instruments, the time-series sampler, and the event log.
// Any field — or the whole Observer — may be nil, and every consumer
// tolerates that.
type Observer struct {
	Metrics *Registry
	Sampler *Sampler
	Events  *EventLog
}

// NewObserver builds a fully-enabled Observer: a fresh registry, a sampler
// at the given cadence (0 disables sampling), and an empty event log.
func NewObserver(sampleEvery uint64) *Observer {
	o := &Observer{Metrics: NewRegistry(), Events: &EventLog{}}
	if sampleEvery > 0 {
		o.Sampler = NewSampler(sampleEvery)
	}
	return o
}
