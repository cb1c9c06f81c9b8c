package fixture

import "mosaic/internal/obs"

const prefix = "tlb.mosaic"

// badNames violate the lowercase-dotted grammar in every supported
// constructor.
func badNames(r *obs.Registry, s *obs.Sampler) {
	r.Counter("Vm.access")                              // want "not a lowercase dotted identifier"
	r.Counter("vm")                                     // want "not a lowercase dotted identifier"
	r.Gauge("vm..util")                                 // want "not a lowercase dotted identifier"
	r.Counter(prefix + ".B")                            // want "not a lowercase dotted identifier"
	s.Gauge("Utilization", func() float64 { return 0 }) // want "not a lowercase dotted identifier"
	s.Rate("swap io", func() float64 { return 0 })      // want "not a lowercase dotted identifier"
	s.Ratio("9lives.rate", 1, nil, nil)                 // want "not a lowercase dotted identifier"
}
