package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestValidName(t *testing.T) {
	valid := []string{"tlb.miss", "vm.fault.minor", "iceberg.backyard.occupancy", "a.b", "x1.y_2"}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	invalid := []string{"", "tlb", "Tlb.miss", "tlb.Miss", "tlb..miss", ".miss", "tlb.", "tlb miss", "1tlb.miss", "tlb.9miss", "tlb-miss.x"}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	var g Gauge
	g.Set(0.75)
	if g.Value() != 0.75 {
		t.Fatalf("gauge = %v, want 0.75", g.Value())
	}
}

// TestGaugeAdd: occupancy-style call sites shift the level in one call
// instead of a read-modify-write Set(g.Value()+d).
func TestGaugeAdd(t *testing.T) {
	var g Gauge
	g.Add(3)
	g.Add(-1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge after Add(3), Add(-1.5) = %v, want 1.5", g.Value())
	}
	g.Set(10)
	g.Add(1)
	if g.Value() != 11 {
		t.Fatalf("gauge after Set(10), Add(1) = %v, want 11", g.Value())
	}
}

func TestRegistryHandlesAndValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tlb.miss")
	c.Add(7)
	if r.Counter("tlb.miss") != c {
		t.Fatal("second Counter lookup returned a different handle")
	}
	if got := r.CounterValue("tlb.miss"); got != 7 {
		t.Fatalf("CounterValue = %d, want 7", got)
	}
	if got := r.CounterValue("no.such"); got != 0 {
		t.Fatalf("missing CounterValue = %d, want 0", got)
	}
	g := r.Gauge("vm.utilization")
	g.Set(0.9)
	if r.Gauge("vm.utilization") != g {
		t.Fatal("second Gauge lookup returned a different handle")
	}
	r.Counter("walk.count")
	snap := r.Snapshot()
	if _, ok := snap.Counters["walk.count"]; !ok || len(snap.Counters) != 2 || len(snap.Gauges) != 1 {
		t.Fatalf("Snapshot = %+v, want counters tlb.miss and walk.count and gauge vm.utilization", snap)
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	mustPanic("bad name", func() { r.Counter("BadName") })
	mustPanic("single segment", func() { r.Counter("tlb") })
	r.Counter("tlb.miss")
	mustPanic("kind conflict gauge", func() { r.Gauge("tlb.miss") })
	r.Gauge("vm.utilization")
	mustPanic("kind conflict counter", func() { r.Counter("vm.utilization") })
}

func TestSnapshotMergeAndFlatten(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("tlb.miss").Add(10)
	r1.Gauge("vm.utilization").Set(0.5)

	r2 := NewRegistry()
	r2.Counter("tlb.miss").Add(5)
	r2.Counter("tlb.flush").Add(1)
	r2.Gauge("vm.utilization").Set(0.8)

	m := r1.Snapshot().Merge(r2.Snapshot())
	if m.Counters["tlb.miss"] != 15 {
		t.Errorf("merged tlb.miss = %d, want 15", m.Counters["tlb.miss"])
	}
	if m.Counters["tlb.flush"] != 1 {
		t.Errorf("merged tlb.flush = %d, want 1", m.Counters["tlb.flush"])
	}
	if m.Gauges["vm.utilization"] != 0.8 {
		t.Errorf("merged gauge = %v, want last-writer 0.8", m.Gauges["vm.utilization"])
	}

	flat := m.Flatten()
	byName := map[string]float64{}
	for i := 1; i < len(flat); i++ {
		if flat[i-1].Name >= flat[i].Name {
			t.Errorf("Flatten not sorted: %q before %q", flat[i-1].Name, flat[i].Name)
		}
	}
	for _, nv := range flat {
		byName[nv.Name] = nv.Value
	}
	if byName["tlb.miss"] != 15 {
		t.Errorf("flattened tlb.miss = %v, want 15", byName["tlb.miss"])
	}
	if byName["vm.utilization"] != 0.8 {
		t.Errorf("flattened vm.utilization = %v, want 0.8", byName["vm.utilization"])
	}
	if len(flat) != 3 {
		t.Errorf("Flatten = %v, want 3 metrics", flat)
	}
}

// TestEventLogRing: past the cap the log drops its oldest events and
// keeps the rest in emission order.
func TestEventLogRing(t *testing.T) {
	var l EventLog
	for i := 0; i < eventCap+2; i++ {
		l.Emit(Event{Ref: uint64(i), Component: "vm", Kind: "horizon.advance", Severity: Info})
	}
	evs := l.Events()
	if len(evs) != eventCap {
		t.Fatalf("len = %d, want %d", len(evs), eventCap)
	}
	for i, e := range evs {
		if e.Ref != uint64(i+2) {
			t.Fatalf("event %d has ref %d, want %d", i, e.Ref, i+2)
		}
	}
}

func TestEventNonFiniteFieldsRenderNull(t *testing.T) {
	data, err := json.Marshal(Event{Ref: 1, Component: "x", Kind: "a.b", Severity: Warn,
		Fields: map[string]float64{"bad": math.Inf(-1), "good": 2}})
	if err != nil {
		t.Fatal(err)
	}
	line := string(data)
	if !strings.Contains(line, `"bad":null`) {
		t.Errorf("non-finite field not rendered as null: %s", line)
	}
	if !strings.Contains(line, `"good":2`) {
		t.Errorf("finite field mangled: %s", line)
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit(Event{Kind: "a.b"}) // must not panic
	if l.Events() != nil {
		t.Fatal("a nil EventLog should hold no events")
	}
}

func TestNewObserver(t *testing.T) {
	o := NewObserver(1000)
	if o.Metrics == nil || o.Events == nil || o.Sampler == nil {
		t.Fatal("NewObserver(1000) should populate all three facilities")
	}
	if o.Sampler.Left() != 1000 {
		t.Fatalf("sampler cadence = %d, want 1000", o.Sampler.Left())
	}
	o2 := NewObserver(0)
	if o2.Sampler != nil {
		t.Fatal("NewObserver(0) should leave the sampler nil")
	}
}
