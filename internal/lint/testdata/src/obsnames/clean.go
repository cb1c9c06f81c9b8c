package fixture

import "mosaic/internal/obs"

// goodNames follow the grammar.
func goodNames(r *obs.Registry, s *obs.Sampler) {
	r.Counter("vm.fault.minor")
	r.Gauge("vm.utilization")
	r.Counter("iceberg.put.backyard")
	s.Gauge("vm.ghost.fraction", func() float64 { return 0 })
	s.Ratio("tlb.mosaic_4.hit_rate", 1, nil, nil)
}

// runtimeNames are built from non-constant parts; the registry validates
// them when they are registered, so the analyzer stays quiet.
func runtimeNames(r *obs.Registry, prefix string) {
	r.Counter(prefix + ".hit")
	r.Counter(prefix + ".miss")
}

// suppressed shows the escape hatch.
func suppressed(r *obs.Registry) {
	//lint:ignore obsnames exercising the registry's own validation panic
	r.Counter("NOT.a.name")
}

// otherCounter is a different Counter method entirely; same name, not our
// receiver, not checked.
type otherCounter struct{}

func (otherCounter) Counter(name string) {}

func unrelated(o otherCounter) { o.Counter("Whatever Goes") }
