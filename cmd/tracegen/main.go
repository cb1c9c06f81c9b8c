// Command tracegen captures a workload's memory-reference stream into a
// compact binary trace file, or replays a previously captured trace through
// the memory-system simulator. Traces let a reference stream be simulated
// many times (or inspected) without re-running the workload.
//
// Captures are written in the delta-encoded, block-framed v2 format
// (internal/trace), which replay reads back.
//
// Usage:
//
//	tracegen -workload graph500 -footprint 32 -out graph500.trace
//	tracegen -replay graph500.trace [-entries 256] [-arity 4]
//	tracegen -workload gups -stats          # just count/summarize
package main

import (
	"flag"
	"fmt"
	"os"

	"mosaic"
	"mosaic/internal/core"
	"mosaic/internal/obs"
	"mosaic/internal/trace"
)

var progress *obs.Progress

func main() {
	workload := flag.String("workload", "", "workload to capture (graph500, btree, gups, xsbench)")
	footprint := flag.Uint64("footprint", 32, "workload footprint in MiB")
	maxRefs := flag.Uint64("maxrefs", 0, "cap on captured references (0 = full run)")
	out := flag.String("out", "", "output trace file (capture mode)")
	replay := flag.String("replay", "", "trace file to replay through the simulator")
	entries := flag.Int("entries", 256, "TLB entries for replay")
	arity := flag.Int("arity", 4, "mosaic arity for replay")
	seed := flag.Uint64("seed", 1, "random seed")
	statsOnly := flag.Bool("stats", false, "summarize the stream without writing a file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer stop()
	}
	progress = obs.NewProgress(true)
	defer progress.Done()

	switch {
	case *replay != "":
		if err := replayTrace(*replay, *entries, *arity); err != nil {
			fail(err)
		}
	case *workload != "" && (*out != "" || *statsOnly):
		if err := capture(*workload, *footprint<<20, *maxRefs, *seed, *out, *statsOnly); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// captureSink consumes a capture whole-batch: it tallies reads and writes,
// tracks touched pages (when pages is non-nil), reports progress at every
// 1M-reference boundary, and hands the batch to the encoder (nil when only
// summarizing).
type captureSink struct {
	name                 string
	enc                  trace.BatchSink // nil in -stats mode
	pages                map[core.VPN]bool
	reads, writes, total uint64
}

func (s *captureSink) ProcessBatch(b trace.Batch) {
	for _, r := range b {
		if r.Write() {
			s.writes++
		} else {
			s.reads++
		}
		if s.pages != nil {
			s.pages[core.VPNOf(r.VA())] = true
		}
	}
	if s.enc != nil {
		s.enc.ProcessBatch(b)
	}
	prev := s.total
	s.total += uint64(len(b))
	if s.total>>20 > prev>>20 {
		progress.Stepf("tracegen %s: %d M refs captured", s.name, s.total>>20)
	}
}

func capture(name string, footprint, maxRefs, seed uint64, out string, statsOnly bool) error {
	w, err := mosaic.NewWorkload(name, footprint, seed)
	if err != nil {
		return err
	}
	cs := &captureSink{name: name, pages: map[core.VPN]bool{}}
	var bw *trace.BatchWriter
	if !statsOnly {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if bw, err = trace.NewBatchWriter(f); err != nil {
			return err
		}
		cs.enc = bw
	}

	mosaic.RunBatch(w, cs, maxRefs)
	progress.Done()
	fmt.Printf("%s: %d refs (%d reads, %d writes), %d pages touched, footprint %d MiB\n",
		name, cs.total, cs.reads, cs.writes, len(cs.pages), w.FootprintBytes()>>20)
	if bw != nil {
		if err := bw.Flush(); err != nil {
			return err
		}
		info, err := os.Stat(out)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (v2): %d records, %d bytes (%.2f bytes/record)\n",
			out, bw.Count(), info.Size(), float64(info.Size())/float64(bw.Count()))
	}
	return nil
}

func replayTrace(path string, entries, arity int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.NewBatchReader(f)
	if err != nil {
		return err
	}
	sim, err := mosaic.NewSimulator(mosaic.SimConfig{
		Frames: 1 << 18,
		Specs: []mosaic.TLBSpec{
			{Geometry: mosaic.TLBGeometry{Entries: entries, Ways: 8}},
			{Geometry: mosaic.TLBGeometry{Entries: entries, Ways: 8}, Arity: arity},
		},
	})
	if err != nil {
		return err
	}
	progress.Stepf("tracegen: replaying %s", path)
	n, err := sim.Replay(tr)
	if err != nil {
		return err
	}
	progress.Done()
	fmt.Printf("replayed %d refs through a %d-entry 8-way TLB:\n", n, entries)
	for _, r := range sim.Results() {
		fmt.Printf("  %-10s misses=%d (%.3f%% miss rate)\n",
			r.Spec.Label(), r.TLB.Misses, 100*r.TLB.MissRate())
	}
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
	os.Exit(1)
}
