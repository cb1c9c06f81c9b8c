package mosaic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"mosaic/internal/obs"
	"mosaic/internal/results"
	"mosaic/internal/trace"
)

// The simulator's batching contract is byte-identical results at any batch
// granularity: every counter, sampler window, and event reference index
// must come out the same however the stream is cut into batches. These tests pin that contract by serializing the full
// results.File from replays of one stream at different batchings and
// comparing the JSON bytes.

// batchRecorder retains every delivered ref in order.
type batchRecorder struct{ refs trace.Batch }

func (r *batchRecorder) ProcessBatch(b trace.Batch) { r.refs = append(r.refs, b...) }

// captureStream runs a workload to a Batch in memory.
func captureStream(t *testing.T, name string, footprint, maxRefs uint64) trace.Batch {
	t.Helper()
	w, err := NewWorkload(name, footprint, 7)
	if err != nil {
		t.Fatal(err)
	}
	var rec batchRecorder
	RunBatch(w, &rec, maxRefs)
	return rec.refs
}

// cutBatches slices a stream into batches of cycling sizes; a single size
// gives a uniform batching.
func cutBatches(stream trace.Batch, sizes ...int) []trace.Batch {
	var out []trace.Batch
	for i, k := 0, 0; i < len(stream); k++ {
		n := min(sizes[k%len(sizes)], len(stream)-i)
		out = append(out, stream[i:i+n])
		i += n
	}
	return out
}

// resultsJSON serializes everything a driver publishes from a simulator:
// the finalized metrics snapshot, the sampler's series, and the event log.
func resultsJSON(t *testing.T, sim *Simulator, ob *obs.Observer) []byte {
	t.Helper()
	f := results.New("equivalence")
	f.AddSnapshot("", sim.FinalizeMetrics().Snapshot())
	if ob != nil {
		if sp := sim.Sampler(); sp != nil {
			f.AddSampler("", sp.Series())
		}
		f.AddEvents("equiv", ob.Events.Events())
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// equivSim builds the simulator the batchings replay into: frames sizes
// its memory, and checkEvery sets its invariant-audit cadence (0 = off).
func equivSim(t *testing.T, ob *obs.Observer, frames int, checkEvery uint64) *Simulator {
	t.Helper()
	sim, err := NewSimulator(SimConfig{
		Frames:     frames,
		CheckEvery: checkEvery,
		Specs: []TLBSpec{
			{Geometry: TLBGeometry{Entries: 256, Ways: 8}},
			{Geometry: TLBGeometry{Entries: 256, Ways: 8}, Arity: 4},
			{Geometry: TLBGeometry{Entries: 256, Ways: 8}, Coalesce: 8},
		},
		Seed: 3,
		Obs:  ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// batchings are the cuts TestBatchBoundaryInvariance compares against the
// default-size replay: uniform boundary-hostile sizes around 1 and
// DefaultBatchSize, a cycling mix of them, and the whole stream at once.
var batchings = map[string][]int{
	"1":     {1},
	"3":     {3},
	"17":    {17},
	"4095":  {trace.DefaultBatchSize - 1},
	"4096":  {trace.DefaultBatchSize},
	"mixed": {1, 3, trace.DefaultBatchSize - 1, trace.DefaultBatchSize, 17},
	"whole": {1 << 30},
}

// TestBatchBoundaryInvariance replays one captured stream into a Simulator
// at every batching and requires results files byte-identical to the
// default-size replay; batches of one reference are the per-reference
// order. The fig6 case runs with the sampler off, in ample memory, and
// on, in memory that evicts throughout, with a window of 1000 references
// and an invariant audit every 777, so window and audit edges cut
// segments in the middle of batches and between evictions. The
// multiprogram case interleaves two streams in round-robin quanta, cut
// either per quantum or through the v2 decoder's frame-carrying quantum
// slicer. The table4 case runs the OS-only path, one TouchN per run of
// references to one page, into vanilla, mosaic and scan-mode Systems.
func TestBatchBoundaryInvariance(t *testing.T) {
	t.Run("fig6", func(t *testing.T) {
		// The stream touches 1024 pages; the sampled case's 768 frames
		// evict.
		stream := captureStream(t, "gups", 4<<20, 300_000)
		for _, sampled := range []bool{false, true} {
			replay := func(sizes ...int) []byte {
				var ob *obs.Observer
				refs, frames, checkEvery := stream, 1<<15, uint64(0)
				if sampled {
					// The audits dominate this replay's cost, so it runs
					// half the stream: 150 window edges, 193 audits and
					// about 18k evictions.
					ob = obs.NewObserver(1000)
					refs, frames, checkEvery = stream[:150_000], 768, 777
				}
				sim := equivSim(t, ob, frames, checkEvery)
				for _, b := range cutBatches(refs, sizes...) {
					sim.ProcessBatch(b)
				}
				if sampled && sim.Metrics().CounterValue("vm.evict") == 0 {
					t.Fatal("the sampled replay evicted nothing")
				}
				return resultsJSON(t, sim, ob)
			}
			want := replay(trace.DefaultBatchSize)
			for name, sizes := range batchings {
				if got := replay(sizes...); !bytes.Equal(got, want) {
					t.Errorf("sampled=%v, batches of %s: diverged from the default-size replay:\n%s",
						sampled, name, firstDiff(got, want))
				}
			}
		}
	})
	t.Run("table4", func(t *testing.T) {
		// A 1.2 MiB btree in 256 frames (1 MiB) swaps throughout, and a
		// 97-reference scan interval puts daemon ticks inside runs.
		stream := captureStream(t, "btree", 1200<<10, 200_000)
		replay := func(sizes ...int) []obs.Snapshot {
			sinks := fanOut{}
			for _, cfg := range []SystemConfig{
				{Mode: ModeVanilla},
				{Mode: ModeMosaic},
				{Mode: ModeMosaic, ScanInterval: 97},
			} {
				cfg.Frames, cfg.Seed = 256, 3
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sinks = append(sinks, vmSink{sys, 1})
			}
			for _, b := range cutBatches(stream, sizes...) {
				sinks.ProcessBatch(b)
			}
			snaps := make([]obs.Snapshot, len(sinks))
			for i, s := range sinks {
				if s.sys.Device().TotalIO() == 0 {
					t.Fatalf("system %d did no swap I/O", i)
				}
				snaps[i] = s.sys.Metrics().Snapshot()
			}
			return snaps
		}
		want := replay(1)
		if want[2].Counters["vm.scan.daemon"] == 0 {
			t.Fatal("the scan daemon never ran")
		}
		for name, sizes := range batchings {
			if got := replay(sizes...); !reflect.DeepEqual(got, want) {
				t.Errorf("batches of %s: counters %v, per-reference order %v", name, got, want)
			}
		}
	})
	t.Run("multiprogram", func(t *testing.T) {
		streams := []trace.Batch{
			captureStream(t, "gups", 2<<20, 150_000),
			captureStream(t, "kvstore", 2<<20, 150_000),
		}
		const quantum = 5_000
		// replay interleaves the streams in quanta, delivering each
		// quantum cut into batches of the given sizes.
		replay := func(sizes ...int) []byte {
			sim := equivSim(t, nil, 1<<15, 0)
			offs := make([]int, len(streams))
			for live := len(streams); live > 0; {
				live = 0
				for i, s := range streams {
					if offs[i] == len(s) {
						continue
					}
					n := min(quantum, len(s)-offs[i])
					for _, b := range cutBatches(s[offs[i]:offs[i]+n], sizes...) {
						sim.ProcessBatchFrom(ASID(i+1), b)
					}
					offs[i] += n
					if offs[i] < len(s) {
						live++
					}
				}
			}
			return resultsJSON(t, sim, nil)
		}
		want := replay(trace.DefaultBatchSize)
		for name, sizes := range batchings {
			if got := replay(sizes...); !bytes.Equal(got, want) {
				t.Errorf("batches of %s: diverged from the default-size replay:\n%s", name, firstDiff(got, want))
			}
		}
		// The quantum slicer Multiprogram's shared run uses: v2 captures
		// decoded frame by frame, frames carried across quantum cuts.
		sim := equivSim(t, nil, 1<<15, 0)
		readers := make([]*quantumStream, len(streams))
		for i, s := range streams {
			var buf bytes.Buffer
			w, err := trace.NewBatchWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteBatch(s); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			r, err := trace.NewBatchReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			readers[i] = &quantumStream{r: r, buf: make(trace.Batch, 0, trace.DefaultBatchSize)}
		}
		for live := len(readers); live > 0; {
			live = 0
			for i, r := range readers {
				if r == nil {
					continue
				}
				done, err := r.replayQuantum(sim, ASID(i+1), quantum)
				if err != nil {
					t.Fatal(err)
				}
				if done {
					readers[i] = nil
					continue
				}
				live++
			}
		}
		if got := resultsJSON(t, sim, nil); !bytes.Equal(got, want) {
			t.Errorf("quantum-sliced v2 replay diverged from the default-size replay:\n%s", firstDiff(got, want))
		}
	})
}

// TestRunBatchTrimsTailToLimit pins the cap when a finite workload ends
// between flush boundaries: with maxRefs below the workload's length and
// the whole stream shorter than one DefaultBatchSize batch, the sink must
// see exactly the cap.
func TestRunBatchTrimsTailToLimit(t *testing.T) {
	var capped batchCountSink
	if got := RunBatch(streamWorkload{n: 3000}, &capped, 100); got != 100 || capped.n != 100 {
		t.Errorf("capped: RunBatch returned %d, sink saw %d, want 100", got, capped.n)
	}
	// A workload shorter than the cap delivers everything.
	var under batchCountSink
	if got := RunBatch(streamWorkload{n: 50}, &under, 100); got != 50 || under.n != 50 {
		t.Errorf("short workload: n=%d sink=%d, want 50", got, under.n)
	}
	// A cap exactly at the workload length delivers exactly the workload.
	var exact batchCountSink
	if got := RunBatch(streamWorkload{n: 100}, &exact, 100); got != 100 || exact.n != 100 {
		t.Errorf("exact cap: n=%d sink=%d, want 100", got, exact.n)
	}
}

// TestRunBatchCapIsPrefix: a capped run of every workload delivers exactly
// the first maxRefs references of the uncapped stream — the budget trims
// the stream and never perturbs it.
func TestRunBatchCapIsPrefix(t *testing.T) {
	const footprint, maxRefs = 1 << 20, 10_000
	for _, name := range []string{"graph500", "btree", "gups", "xsbench", "kvstore"} {
		t.Run(name, func(t *testing.T) {
			full := captureStream(t, name, footprint, 0)
			if len(full) <= maxRefs {
				t.Fatalf("uncapped stream has only %d refs", len(full))
			}
			capped := captureStream(t, name, footprint, maxRefs)
			if len(capped) != maxRefs {
				t.Fatalf("capped run delivered %d refs, want %d", len(capped), maxRefs)
			}
			for i, r := range capped {
				if r != full[i] {
					t.Fatalf("ref %d = %#x, uncapped stream has %#x", i, r, full[i])
				}
			}
		})
	}
}

// firstDiff renders the first line where two JSON blobs diverge.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: %s vs %s", i+1, al[i], bl[i])
		}
	}
	return "length mismatch"
}
