// Package hot is the hotalloc fixture, a miniature per-reference hot path.
// This variant counts through a per-call closure: the counter is captured
// by a func literal, so both the literal and the counter escape to the
// heap — the regression the gate exists to catch.
package hot

// Sink consumes one memory reference per call.
type Sink interface {
	Access(va uint64, write bool)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(va uint64, write bool)

func (f SinkFunc) Access(va uint64, write bool) { f(va, write) }

// Count drives the workload into a counting closure.
func Count(run func(Sink)) (n uint64) {
	run(SinkFunc(func(va uint64, write bool) { n++ }))
	return n
}
