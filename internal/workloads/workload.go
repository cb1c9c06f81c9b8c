// Package workloads reimplements the paper's four evaluation workloads
// (Table 2) — Graph500, BTree, GUPS, and XSBench — as real algorithms over
// real data structures laid out in a simulated virtual address space. Every
// data reference the algorithm performs is emitted into a trace.Batcher, so
// the memory-system simulator sees the genuine access pattern of each
// workload (CSR graph traversal, B+-tree descent, uniform random updates,
// unionized-energy-grid search) at a footprint scaled to simulator speeds.
package workloads

import (
	"fmt"

	"mosaic/internal/trace"
)

// Workload is a runnable benchmark emitting its reference stream.
type Workload interface {
	// Name is the workload's short name ("graph500", "btree", …).
	Name() string
	// FootprintBytes is the total simulated-heap footprint.
	FootprintBytes() uint64
	// Run executes the workload, emitting every data reference into b.
	// It checks b.Done once per outer-loop iteration and returns early
	// once the run's reference budget is spent. The caller flushes b.
	Run(b *trace.Batcher)
}

// Registry constructs the paper's four workloads at a common scale.
// footprintBytes is a target heap size; each constructor picks its natural
// parameters to land near it. seed makes runs reproducible.
func Registry(footprintBytes uint64, seed uint64) []Workload {
	return []Workload{
		NewGraph500(Graph500Config{TargetBytes: footprintBytes, Seed: seed}),
		NewBTree(BTreeConfig{TargetBytes: footprintBytes, Seed: seed}),
		NewGUPS(GUPSConfig{TargetBytes: footprintBytes, Seed: seed}),
		NewXSBench(XSBenchConfig{TargetBytes: footprintBytes, Seed: seed}),
	}
}

// ByName constructs one of the paper's workloads by name.
func ByName(name string, footprintBytes uint64, seed uint64) (Workload, error) {
	switch name {
	case "graph500":
		return NewGraph500(Graph500Config{TargetBytes: footprintBytes, Seed: seed}), nil
	case "btree":
		return NewBTree(BTreeConfig{TargetBytes: footprintBytes, Seed: seed}), nil
	case "gups":
		return NewGUPS(GUPSConfig{TargetBytes: footprintBytes, Seed: seed}), nil
	case "xsbench":
		return NewXSBench(XSBenchConfig{TargetBytes: footprintBytes, Seed: seed}), nil
	case "kvstore":
		// Extension beyond Table 2: the Redis-like key-value store from
		// the paper's motivation.
		return NewKVStore(KVStoreConfig{TargetBytes: footprintBytes, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("workloads: unknown workload %q (want graph500, btree, gups, xsbench, or kvstore)", name)
	}
}

// Names lists the available workloads in the paper's order.
func Names() []string { return []string{"graph500", "btree", "gups", "xsbench"} }
