package obs

import (
	"fmt"
	"regexp"
	"time"
)

// Span marks one phase of a run — warmup, run, report — on both of the
// axes the rest of the package measures: the reference index (where in
// the simulated stream the phase started and ended) and wall time (what
// it cost us to compute). Finishing a span feeds the wall.phase.duration
// histogram and drops one structured event, so phase boundaries line up
// with the metrics and the event log in one results file.
//
// Spans are driver-side instrumentation (session lifecycles, experiment
// stages), not hot-path instruments: creating and finishing one costs a
// couple of clock reads and an event append.
type Span struct {
	// Name is the phase name, a lowercase identifier ("warmup", "run",
	// "report").
	Name string
	// StartRef and EndRef delimit the phase on the reference-index axis.
	StartRef, EndRef uint64
	// Start and End delimit the phase in wall time.
	Start, End time.Time
}

// spanNameRE is the span-name grammar: one lowercase segment. Unlike
// metric names, spans are single words — the dotted namespace they land
// in ("phase.<name>" events, the wall.phase.duration histogram) is fixed.
var spanNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// ValidSpanName reports whether name is a lowercase span identifier.
func ValidSpanName(name string) bool { return spanNameRE.MatchString(name) }

// PhaseDurationMetric is the histogram every finished span observes its
// wall-time duration into, in microseconds. It lives in the reserved
// "wall." namespace: wall-clock observations are telemetry, not results —
// results.File.AddSnapshot excludes the namespace from deterministic
// results files.
const PhaseDurationMetric = "wall.phase.duration"

// NewSpan starts a phase span at the given reference index, stamping the
// wall clock. It panics on a malformed name: spans are wired at
// configuration time, so a bad name is a programming error (and a
// mosaiclint obsnames finding at review time).
func NewSpan(name string, startRef uint64) *Span {
	if !ValidSpanName(name) {
		//lint:ignore nopanic span registration is configuration; a malformed name is a programming error caught by the first run and by mosaiclint obsnames
		panic(fmt.Sprintf("obs: span name %q is not a lowercase identifier (want e.g. \"warmup\")", name))
	}
	return &Span{Name: name, StartRef: startRef, Start: time.Now()}
}

// Finish ends the span at the given reference index, stamps the wall
// clock, and records it on the observer. Nil-safe in o.
func (sp *Span) Finish(o *Observer, endRef uint64) {
	sp.EndRef = endRef
	sp.End = time.Now()
	sp.Record(o)
}

// Duration is the span's wall-time extent (zero until End is stamped).
func (sp *Span) Duration() time.Duration {
	if sp.End.Before(sp.Start) {
		return 0
	}
	return sp.End.Sub(sp.Start)
}

// Record observes the span's duration in the wall.phase.duration histogram
// and emits a phase.<name> event carrying both axes. Split from Finish so
// tests (and replayers) can record spans with explicit timestamps.
// Nil-safe in o and in each of its fields.
func (sp *Span) Record(o *Observer) {
	micros := uint64(sp.Duration().Microseconds())
	if r := o.Registry(); r != nil {
		r.Histogram(PhaseDurationMetric).Observe(micros)
	}
	o.Emit(Event{
		Ref:       sp.EndRef,
		Component: "obs",
		Kind:      "phase." + sp.Name,
		Severity:  Info,
		Fields: map[string]float64{
			"start_ref": float64(sp.StartRef),
			"end_ref":   float64(sp.EndRef),
			"micros":    float64(micros),
		},
	})
}
