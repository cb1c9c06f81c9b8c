package mosaic_test

import (
	"fmt"

	"mosaic"
)

// The basic OS-level flow: demand paging with compressed translations.
func ExampleNewSystem() {
	sys, err := mosaic.NewSystem(mosaic.SystemConfig{
		Frames: 1024,
		Mode:   mosaic.ModeMosaic,
		Seed:   1,
	})
	if err != nil {
		panic(err)
	}
	res := sys.Touch(1, 0x42, true) // first touch: demand-zero fault
	fmt.Println("first touch:", res)
	fmt.Println("second touch:", sys.Touch(1, 0x42, false))

	cpfn, _ := sys.CPFNFor(1, 0x42)
	fmt.Println("CPFN fits 7 bits:", cpfn < 104)
	// Output:
	// first touch: minor-fault
	// second touch: hit
	// CPFN fits 7 bits: true
}

// The paper's 7-bit hardware encoding of a compressed frame number.
func ExampleGeometry() {
	g := mosaic.DefaultGeometry
	fmt.Println("associativity:", g.Associativity())
	fmt.Println("CPFN bits:", g.CPFNBits())

	front := g.FrontyardCPFN(13)
	back := g.BackyardCPFN(3, 6)
	fmt.Printf("frontyard slot 13: %#07b\n", g.EncodeHW(front))
	fmt.Printf("backyard choice 3 slot 6: %#07b\n", g.EncodeHW(back))
	fmt.Printf("unmapped: %#07b\n", g.EncodeHW(mosaic.CPFNInvalid))
	// Output:
	// associativity: 104
	// CPFN bits: 7
	// frontyard slot 13: 0b0001101
	// backyard choice 3 slot 6: 0b1011110
	// unmapped: 0b1111111
}

// Feeding one reference stream to a vanilla and a mosaic TLB at once — the
// paper's dual-TLB methodology.
func ExampleNewSimulator() {
	geom := mosaic.TLBGeometry{Entries: 64, Ways: 8}
	sim, err := mosaic.NewSimulator(mosaic.SimConfig{
		Frames: 1 << 16,
		Specs: []mosaic.TLBSpec{
			{Geometry: geom},
			{Geometry: geom, Arity: 4},
		},
		Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	// Scan 128 pages (2× vanilla reach, ½ mosaic reach), five times.
	for round := 0; round < 5; round++ {
		for page := uint64(0); page < 128; page++ {
			sim.Access(0x10000000+page*mosaic.PageSize, false)
		}
	}
	// Vanilla thrashes every round (128 pages > 64-entry reach): 5×128.
	// Mosaic-4 covers the region (32 ToCs in 64 entries), so it misses only
	// on the first pass, where each page's demand fault populates its ToC
	// sub-entry.
	for _, r := range sim.Results() {
		fmt.Printf("%s: %d misses\n", r.Spec.Label(), r.TLB.Misses)
	}
	// Output:
	// Vanilla: 640 misses
	// Mosaic-4: 128 misses
}

// Reproducing the paper's hardware table.
func ExampleTable5() {
	for _, r := range mosaic.Table5() {
		fmt.Printf("H=%d: %d LUTs, %.3f ns\n", r.HashOutputs, r.LUTs, r.LatencyNs)
	}
	// Output:
	// H=1: 858 LUTs, 2.155 ns
	// H=2: 1696 LUTs, 2.155 ns
	// H=4: 3392 LUTs, 2.155 ns
	// H=8: 6208 LUTs, 2.155 ns
}

// Running one of the paper's workloads with a reference cap.
// refCounter is a BatchSink that counts the references it receives.
type refCounter struct{ n uint64 }

func (c *refCounter) ProcessBatch(b mosaic.Batch) { c.n += uint64(len(b)) }

func ExampleRunBatch() {
	w, err := mosaic.NewWorkload("gups", 1<<20, 1)
	if err != nil {
		panic(err)
	}
	var count refCounter
	n := mosaic.RunBatch(w, &count, 10000)
	fmt.Println("delivered:", n, "counted:", count.n)
	// Output:
	// delivered: 10000 counted: 10000
}
