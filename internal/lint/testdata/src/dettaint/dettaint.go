// Fixture for the dettaint analyzer: nondeterminism sources flowing into
// determinism sinks, directly, through callees, and through struct fields —
// plus the two sanctioned escapes (collect-then-sort, wall.* instruments).
package dettaint

import (
	"math/rand"
	"os"
	"sort"
	"time"

	"mosaic/internal/obs"
	"mosaic/internal/results"
	"mosaic/internal/trace"
)

// direct: a wall-clock reading lands in a results metric.
func direct(f *results.File) {
	f.SetMetric("elapsed", float64(time.Now().UnixNano())) // want "wall-clock-tainted value flows into a results.File metric"
}

// publish is a sink carrier: its v parameter reaches a metric, so tainted
// arguments at its call sites are findings there.
func publish(f *results.File, v float64) {
	f.SetMetric("carried", v)
}

// indirect: the taint travels through publish's parameter summary.
func indirect(f *results.File) {
	secs := float64(time.Now().UnixNano())
	publish(f, secs) // want "wall-clock-tainted value reaches a results.File metric through mosaic/internal/fixture.publish"
}

// relayEven and relayOdd form a call cycle that carries v to a metric from
// either member: the carrier fact must be iterated around the cycle to a
// joint fixpoint before it reaches relayOdd.
func relayEven(f *results.File, v float64, n int) {
	if n == 0 {
		f.SetMetric("relayed", v)
		return
	}
	relayOdd(f, v, n-1)
}

func relayOdd(f *results.File, v float64, n int) {
	relayEven(f, v, n-1)
}

// cyclic: taint entering the cycle at the member without the sink is still
// found.
func cyclic(f *results.File) {
	relayOdd(f, float64(time.Now().UnixNano()), 3) // want "wall-clock-tainted value reaches a results.File metric through mosaic/internal/fixture.relayOdd"
}

// span carries a wall-clock reading across functions through a field.
type span struct {
	start float64
}

func begin(s *span) {
	s.start = float64(time.Now().UnixNano())
}

// flush reads the tainted field in a different function: the program-wide
// field lattice carries the bit.
func flush(s *span, f *results.File) {
	f.SetMetric("span.start", s.start) // want "wall-clock-tainted value flows into a results.File metric"
}

// mapOrder: ranging a map straight into metrics makes the emission order —
// and the name/value pairing seen by diff tools — run-dependent.
func mapOrder(f *results.File, m map[string]float64) {
	for k, v := range m {
		f.SetMetric(k, v) // want "map-iteration-order-tainted value flows into a results.File metric"
	}
}

// sortedEmit is the sanctioned idiom: collect, sort, then emit. Clean.
func sortedEmit(f *results.File, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f.SetMetric(k, m[k])
	}
}

// instrument: a non-wall instrument fed from the clock is a finding…
func instrument(r *obs.Registry) {
	r.Gauge("sim.phase.seconds").Set(float64(time.Now().UnixNano())) // want "wall-clock-tainted value flows into an obs registry instrument"
}

// …but the reserved wall.* namespace is the telemetry plane: exempt.
func wallInstrument(r *obs.Registry) {
	r.Gauge("wall.phase.seconds").Set(float64(time.Now().UnixNano()))
}

// envMetric: the environment differs between hosts and runs.
func envMetric(f *results.File) {
	f.SetMetric("env", float64(len(os.Getenv("HOME")))) // want "environment-tainted value flows into a results.File metric"
}

// randMetric: the global math/rand stream is unseeded.
func randMetric(f *results.File) {
	f.SetMetric("noise", rand.Float64()) // want "global math/rand-tainted value flows into a results.File metric"
}

// sched: whichever arm wins the select is scheduler-dependent.
func sched(f *results.File, a, b chan float64) {
	var v float64
	select {
	case v = <-a:
	case v = <-b:
	}
	f.SetMetric("first", v) // want "goroutine/select-ordering-tainted value flows into a results.File metric"
}

// traceTaint: a tainted address entering the reference stream forks the
// trace byte-for-byte.
func traceTaint(b *trace.Batcher) {
	b.Access(uint64(time.Now().UnixNano()), false) // want "wall-clock-tainted value flows into a trace sink"
}

// seeded randomness through a value-carrying conversion chain is clean: the
// *rand.Rand method is not a source.
func seeded(f *results.File, rng *rand.Rand) {
	f.SetMetric("draw", rng.Float64())
}
