package obs

import (
	"encoding/json"
	"math"
)

// Severity classifies an event.
type Severity string

// The three severities. Info marks expected-but-notable transitions,
// Warn marks pressure signals (eviction storms), Error marks states that
// should never occur in a healthy run.
const (
	Info  Severity = "info"
	Warn  Severity = "warn"
	Error Severity = "error"
)

// Event is one structured log record: a rare, discrete occurrence worth
// pinpointing on the reference-index axis (unlike metrics, which aggregate).
type Event struct {
	// Ref is the reference index (the OS access clock) at which the event
	// occurred.
	Ref uint64 `json:"ref"`
	// Component names the emitting subsystem ("vm", "memsim", "iceberg").
	Component string `json:"component"`
	// Kind is the event type, a lowercase dotted identifier
	// ("horizon.advance", "eviction.storm", "invariant.pass").
	Kind string `json:"kind"`
	// Severity is info, warn, or error.
	Severity Severity `json:"severity"`
	// Scope optionally qualifies the run the event belongs to (e.g. the
	// workload name when one results file covers several runs).
	Scope string `json:"scope,omitempty"`
	// Message is an optional human-readable elaboration.
	Message string `json:"message,omitempty"`
	// Fields carries numeric payload ("horizon": 123456). Non-finite
	// values are replaced with null on encoding.
	Fields map[string]float64 `json:"fields,omitempty"`
}

// MarshalJSON encodes the event with non-finite field values as null, so
// a results file's events array is always valid JSON.
func (e Event) MarshalJSON() ([]byte, error) {
	type wire struct {
		Ref       uint64              `json:"ref"`
		Component string              `json:"component"`
		Kind      string              `json:"kind"`
		Severity  Severity            `json:"severity"`
		Scope     string              `json:"scope,omitempty"`
		Message   string              `json:"message,omitempty"`
		Fields    map[string]*float64 `json:"fields,omitempty"`
	}
	w := wire{Ref: e.Ref, Component: e.Component, Kind: e.Kind, Severity: e.Severity, Scope: e.Scope, Message: e.Message}
	if len(e.Fields) > 0 {
		w.Fields = make(map[string]*float64, len(e.Fields))
		for k, v := range e.Fields {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				w.Fields[k] = nil
				continue
			}
			v := v
			w.Fields[k] = &v
		}
	}
	return json.Marshal(w)
}

// eventCap bounds the event log. Rare events stay rare; if a run emits
// more than this, the oldest are dropped.
const eventCap = 4096

// EventLog keeps the latest eventCap events in emission order. The zero
// value is ready to use, and Emit on a nil *EventLog is a no-op, so
// components hold the pointer unconditionally.
type EventLog struct {
	events []Event
}

// Emit records one event, dropping the oldest at the cap; nil-safe.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	if len(l.events) == eventCap {
		l.events = l.events[1:]
	}
	l.events = append(l.events, e)
}

// Events returns the retained events, oldest first; nil-safe.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	return append([]Event(nil), l.events...)
}
