// Memory pressure: what mosaic's mapping constraints cost when RAM runs out.
//
// The worry with constrained (low-associativity) placement is early or
// excessive swapping. This example oversubscribes a small memory with the
// XSBench workload and compares three regimes — the Linux-like baseline,
// mosaic with Horizon LRU, and mosaic with the ghost mechanism disabled —
// reporting when each starts to swap and how much I/O it performs (§4.2,
// §4.3 of the paper).
//
// Run with: go run ./examples/memorypressure
package main

import (
	"fmt"
	"log"

	"mosaic"
)

const (
	memoryMiB    = 16
	footprintMiB = 20 // 1.25× memory
	maxRefs      = 10_000_000
	seed         = 5
)

func main() {
	// Everything below shares these dimensions.
	fmt.Printf("XSBench with a %d MiB working set in %d MiB of memory (%d refs)\n\n",
		footprintMiB, memoryMiB, maxRefs)
	fmt.Printf("%-28s %18s %14s %12s %10s\n",
		"Regime", "swap onset (util)", "page-outs", "page-ins", "ghosts")

	run(mosaic.SystemConfig{Mode: mosaic.ModeVanilla}, "Linux-like (two-list LRU)")
	run(mosaic.SystemConfig{Mode: mosaic.ModeMosaic}, "Mosaic (Horizon LRU)")
	run(mosaic.SystemConfig{Mode: mosaic.ModeMosaic, DisableHorizon: true},
		"Mosaic (no ghosts, naive)")

	fmt.Println()
	fmt.Println("Mosaic's constraints do not move the swap onset meaningfully: conflicts")
	fmt.Println("only appear once memory is ~98% full, at which point the Linux baseline")
	fmt.Println("is about to swap anyway (its watermarks fire at ~99.2%). Ghost pages then")
	fmt.Println("let Horizon LRU keep memory ~fully utilized while evicting cold pages.")
}

// onsetSink touches every reference from address space 1 and records the
// utilization at the first page-out.
type onsetSink struct {
	sys   *mosaic.System
	onset float64
}

func (s *onsetSink) ProcessBatch(b mosaic.Batch) {
	for _, r := range b {
		s.sys.TouchVA(1, r.VA(), r.Write())
		if s.onset < 0 && s.sys.Device().PageOuts() > 0 {
			s.onset = s.sys.Utilization()
		}
	}
}

func run(cfg mosaic.SystemConfig, label string) {
	cfg.Frames = memoryMiB << 20 / mosaic.PageSize
	cfg.Seed = seed
	sys, err := mosaic.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	w, err := mosaic.NewWorkload("xsbench", footprintMiB<<20, seed)
	if err != nil {
		log.Fatal(err)
	}
	sink := &onsetSink{sys: sys, onset: -1}
	mosaic.RunBatch(w, sink, maxRefs)
	onset := sink.onset
	onsetStr := "never"
	if onset >= 0 {
		onsetStr = fmt.Sprintf("%.2f%%", 100*onset)
	}
	fmt.Printf("%-28s %18s %14d %12d %10d\n",
		label, onsetStr, sys.Device().PageOuts(), sys.Device().PageIns(), sys.GhostCount())
}
