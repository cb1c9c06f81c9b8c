// Database index: point lookups and range scans on a B+ tree.
//
// Index lookups touch one page per tree level with no locality between
// levels — the reason databases care about TLB reach (and why many of them
// tell operators to disable transparent huge pages rather than pay
// defragmentation stalls; see §5.1). Mosaic pages widen reach without any
// defragmentation, so the index wins without the operational hazard.
//
// Run with: go run ./examples/dbindex
package main

import (
	"fmt"
	"log"

	"mosaic"
)

func main() {
	const footprint = 48 << 20
	idx, err := mosaic.NewWorkload("btree", footprint, 11)
	if err != nil {
		log.Fatal(err)
	}

	geom := mosaic.TLBGeometry{Entries: 256, Ways: 8}
	sim, err := mosaic.NewSimulator(mosaic.SimConfig{
		Frames: 1 << 17,
		Specs: []mosaic.TLBSpec{
			{Geometry: geom},
			{Geometry: geom, Arity: 4},
			{Geometry: geom, Arity: 8},
		},
		Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("B+ tree index (%d MiB of 4 KiB nodes), bulk load + random point lookups\n", footprint>>20)
	fmt.Printf("TLB: %s\n\n", geom)
	refs := mosaic.RunBatch(idx, sim, 16_000_000)

	fmt.Printf("%-9s %12s %16s %16s\n", "Design", "TLB misses", "entry misses", "sub-page misses")
	for _, r := range sim.Results() {
		fmt.Printf("%-9s %12d %16d %16d\n",
			r.Spec.Label(), r.TLB.Misses, r.TLB.EntryMisses, r.TLB.SubMisses)
	}

	fmt.Println()
	fmt.Printf("(%d references; a lookup descends ~3 levels = ~3 pages, so the index's\n", refs)
	fmt.Println("hot set is its upper levels — which mosaic entries cover 4-8× more of.)")
	fmt.Println()
	fmt.Println("Sub-page misses happen when a mosaic entry is resident but the specific")
	fmt.Println("4 KiB sub-page was not yet mapped; the walk refills the whole table of")
	fmt.Println("contents, so a mosaic page's remaining sub-pages then hit for free —")
	fmt.Println("virtual locality converted into reach, with zero physical contiguity.")
}
