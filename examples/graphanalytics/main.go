// Graph analytics: the paper's motivating scenario.
//
// Graph traversals chase pointers across working sets far larger than TLB
// reach, with no physical contiguity to exploit — the workload class the
// paper's introduction leads with (Graph500 spends a large fraction of its
// time in TLB misses). This example runs a real breadth-first search over a
// Kronecker graph through the memory-system simulator and compares vanilla
// and mosaic TLB behaviour, including the page-table-walk traffic a miss
// costs.
//
// Run with: go run ./examples/graphanalytics
package main

import (
	"fmt"
	"log"

	"mosaic"
)

func main() {
	const footprint = 24 << 20
	g, err := mosaic.NewWorkload("graph500", footprint, 7)
	if err != nil {
		log.Fatal(err)
	}

	geom := mosaic.TLBGeometry{Entries: 256, Ways: 8}
	sim, err := mosaic.NewSimulator(mosaic.SimConfig{
		Frames: 1 << 17,
		Specs: []mosaic.TLBSpec{
			{Geometry: geom},
			{Geometry: geom, Arity: 4},
			{Geometry: geom, Arity: 16},
		},
		EnableCaches: true,
		Seed:         7,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Graph500 (Kronecker graph, %d MiB CSR + BFS state) on a %s TLB\n\n",
		g.FootprintBytes()>>20, geom)
	refs := mosaic.RunBatch(g, sim, 12_000_000)
	fmt.Printf("%-10s %12s %10s %14s %14s\n", "Design", "TLB misses", "MPKR", "walk accesses", "memory cycles")
	var vanillaMisses uint64
	for _, r := range sim.Results() {
		if r.Spec.Arity == 0 {
			vanillaMisses = r.TLB.Misses
		}
		fmt.Printf("%-10s %12d %10.2f %14d %14d\n",
			r.Spec.Label(), r.TLB.Misses,
			1000*float64(r.TLB.Misses)/float64(refs),
			r.WalkAccesses, r.TotalCycles)
	}
	fmt.Println()
	for _, r := range sim.Results() {
		if r.Spec.Arity != 0 && vanillaMisses > 0 {
			fmt.Printf("%s removes %.1f%% of the vanilla TLB misses.\n",
				r.Spec.Label(), 100*(1-float64(r.TLB.Misses)/float64(vanillaMisses)))
		}
	}
	fmt.Println("\nMPKR = misses per 1000 data references. Walk accesses are the radix")
	fmt.Println("page-table reads the misses triggered; each one occupies the cache")
	fmt.Println("hierarchy, so fewer misses also means less total memory traffic (the")
	fmt.Println("memory-cycles column sums the modeled latency of every access).")
}
