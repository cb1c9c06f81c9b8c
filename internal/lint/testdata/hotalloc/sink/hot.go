// Package hot is the hotalloc fixture, a miniature per-reference hot path.
// This variant counts into a concrete struct — the shape the escape
// baseline blesses.
package hot

// Sink consumes one memory reference per call.
type Sink interface {
	Access(va uint64, write bool)
}

// counter is the concrete counting sink: no closure environment.
type counter struct{ n uint64 }

func (c *counter) Access(va uint64, write bool) { c.n++ }

// Count drives the workload into a counting sink.
func Count(run func(Sink)) uint64 {
	var c counter
	run(&c)
	return c.n
}
