package main

import (
	"math"
	"slices"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the untraced run's metrics: host time and memory as a user
// of the simulator sees them. Simulated statistics are correctness checks
// (the golden digests), never performance metrics. The host-time bounds
// are the widest allowed because the shared 2-vCPU VM the benchmark was
// sized on slows down for minutes at a time, when neighbours load the
// shared cache and memory or steal the CPU: ten consecutive runs' run_s
// spread 5–18% (IQR over median), and more while CPU was stolen. Small
// heaps' peak RSS moves a megabyte or two from pass to pass, and
// table4-btree's is about 20 MB. README.md has the measurements.
var endToEnd = []metricSpec{
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_mrefs_per_s", Unit: "Mref/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// setupFloorS is the absolute change in setup_s that -compare treats as
// noise whatever its share: a few milliseconds of set-up jitter is not a
// regression.
const setupFloorS = 0.002

// perLayer are the traced run's metrics, named <module>.<metric> after the
// package whose cost or behaviour they measure. README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricSpec{
	{Name: "workloads.ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "vm.ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "vm.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "vm.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "vm.fault_ns", Unit: "ns", Better: "lower"},
	{Name: "vm.major_faults", Unit: "count", Better: "lower"},
	{Name: "swap.io_pages", Unit: "count", Better: "lower"},
	{Name: "memsim.ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "memsim.batch_us_p50", Unit: "us", Better: "lower"},
	{Name: "memsim.batch_us_p99", Unit: "us", Better: "lower"},
	{Name: "tlb.vanilla.ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "tlb.mosaic.ns_per_unit_ref", Unit: "ns", Better: "lower"},
	{Name: "tlb.vanilla.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "tlb.mosaic_4.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "pagetable.walk_refs_per_miss", Unit: "refs/miss", Better: "lower"},
	{Name: "walkcache.ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "walkcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "cache.L1.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cache.L2.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cache.L3.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cache.amat_cycles", Unit: "cycles", Better: "lower"},
	{Name: "gc.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "heap.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "heap.allocs_per_kref", Unit: "allocs/kref", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "ladder.replay_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "ladder.sum_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "ladder.gap_pct", Unit: "%", Better: "lower"},
}

// specFor returns the declared spec of a metric name.
func specFor(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		if i := slices.IndexFunc(list, func(s metricSpec) bool { return s.Name == name }); i >= 0 {
			return list[i], true
		}
	}
	return metricSpec{}, false
}

// metric is one reported value. Samples holds the per-pass values behind a
// median; the last-line result carries only value and unit.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// metricSet collects a run's metrics under their declared units.
type metricSet map[string]metric

// put records a value; it panics on an undeclared name, which only a bug in
// this package can produce.
func (m metricSet) put(name string, v float64, samples []float64) {
	spec, ok := specFor(name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: spec.Unit, Samples: samples}
}

// median is the middle value (mean of the middle two); 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile by linear interpolation between order
// statistics; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
