package mosaic

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"mosaic/internal/memsim"
	"mosaic/internal/obs"
	"mosaic/internal/sweep"
	"mosaic/internal/trace"
)

// The multiprogramming experiment (an extension beyond the paper's
// single-process evaluation): several processes time-share one TLB. Each
// process's reference stream is captured once, then the streams are
// replayed in round-robin quanta through the simulator under two regimes —
// ASID-tagged entries (PCID-style, entries survive switches) and full TLB
// flushes on every switch. Because mosaic entries each carry more reach,
// fewer entries per process survive competition and refills after flushes
// are cheaper, so compression pays twice under multiprogramming.

// MultiprogramOptions parameterizes the experiment.
type MultiprogramOptions struct {
	// Workloads are the co-scheduled processes (≥ 2). Defaults to
	// graph500 + kvstore (a batch job against a latency service).
	Workloads []string
	// FootprintBytes sizes each workload (default 16 MiB each).
	FootprintBytes uint64
	// QuantumRefs is the context-switch quantum in references
	// (default 50,000).
	QuantumRefs uint64
	// MaxRefsPerProc caps each captured stream (default 3,000,000).
	MaxRefsPerProc uint64
	// TLBEntries and Ways fix the shared TLB (default 256, 8-way).
	TLBEntries int
	Ways       int
	// Arities are the mosaic design points (default 4, 16).
	Arities []int
	// FlushOnSwitch disables ASID tagging: every context switch flushes
	// the TLBs.
	FlushOnSwitch bool
	// Seed drives the workloads.
	Seed uint64
	// Workers bounds the capture and solo-baseline fan-outs (0 = GOMAXPROCS,
	// 1 = the exact sequential path). The shared round-robin run is a single
	// simulation and always runs sequentially.
	Workers int
	// Progress, when non-nil, receives a live status line per stage.
	Progress *obs.Progress
}

func (o *MultiprogramOptions) applyDefaults() error {
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"graph500", "kvstore"}
	}
	if len(o.Workloads) < 2 {
		return fmt.Errorf("mosaic: multiprogramming needs ≥ 2 workloads")
	}
	if o.FootprintBytes == 0 {
		o.FootprintBytes = 16 << 20
	}
	if o.QuantumRefs == 0 {
		o.QuantumRefs = 50_000
	}
	if o.MaxRefsPerProc == 0 {
		o.MaxRefsPerProc = 3_000_000
	}
	if o.TLBEntries == 0 {
		o.TLBEntries = 256
	}
	if o.Ways == 0 {
		o.Ways = 8
	}
	if len(o.Arities) == 0 {
		o.Arities = []int{4, 16}
	}
	if bucket := DefaultGeometry.BucketSize(); framesFor(*o) < bucket {
		n := uint64(len(o.Workloads))
		least := (uint64(bucket) + n - 1) / n * PageSize / 4
		return fmt.Errorf("mosaic: FootprintBytes %d is too small for %d workloads: memory is four times their footprints and must hold one %d-frame bucket, which needs FootprintBytes of at least %d",
			o.FootprintBytes, n, bucket, least)
	}
	return nil
}

// MultiprogramResult is the outcome per TLB design.
type MultiprogramResult struct {
	// Label is "Vanilla" or "Mosaic-<arity>".
	Label string
	// SharedMisses is the miss count with all processes time-sharing the
	// TLB.
	SharedMisses uint64
	// SoloMisses is the summed miss count of each process running alone
	// on an identical TLB (same total references).
	SoloMisses uint64
	// InterferencePct is the extra misses multiprogramming causes:
	// 100 × (shared − solo) / solo.
	InterferencePct float64
}

// Multiprogram runs the experiment and reports, per design, how much TLB
// interference time-sharing adds over solo execution.
func Multiprogram(opt MultiprogramOptions) ([]MultiprogramResult, uint64, error) {
	if err := opt.applyDefaults(); err != nil {
		return nil, 0, err
	}
	specs := []TLBSpec{{Geometry: TLBGeometry{Entries: opt.TLBEntries, Ways: opt.Ways}}}
	for _, a := range opt.Arities {
		specs = append(specs, TLBSpec{
			Geometry: TLBGeometry{Entries: opt.TLBEntries, Ways: opt.Ways},
			Arity:    a,
		})
	}

	// Capture each process's stream once, in the delta-encoded v2 binary
	// format (whole batches go from workload to encoder without a
	// per-record interface call). Captures are independent — workload i
	// derives everything from Seed+i*977 — so they fan out across
	// Options.Workers goroutines.
	type capture struct {
		stream []byte
		refs   uint64
	}
	captures, err := sweep.Run(context.Background(), opt.Workloads,
		func(_ context.Context, i int, name string) (capture, error) {
			w, err := NewWorkload(name, opt.FootprintBytes, opt.Seed+uint64(i)*977)
			if err != nil {
				return capture{}, err
			}
			var buf bytes.Buffer
			tw, err := trace.NewBatchWriter(&buf)
			if err != nil {
				return capture{}, err
			}
			n := RunBatch(w, tw, opt.MaxRefsPerProc)
			if err := tw.Flush(); err != nil {
				return capture{}, err
			}
			return capture{stream: buf.Bytes(), refs: n}, nil
		},
		sweep.Options{Workers: opt.Workers, Progress: opt.Progress, Name: "multiprog capture"})
	if err != nil {
		return nil, 0, err
	}
	streams := make([][]byte, len(captures))
	refs := make([]uint64, len(captures))
	for i, c := range captures {
		streams[i] = c.stream
		refs[i] = c.refs
	}

	// Solo baselines: each process alone on a fresh simulator. Each replay
	// is its own simulation; the per-label sums fold back in stream order.
	soloRuns, err := sweep.Run(context.Background(), streams,
		func(_ context.Context, i int, stream []byte) (map[string]uint64, error) {
			sim, err := NewSimulator(SimConfig{Frames: framesFor(opt), Specs: specs, Seed: opt.Seed})
			if err != nil {
				return nil, err
			}
			if err := replayStream(stream, sim, ASID(i+1)); err != nil {
				return nil, err
			}
			misses := make(map[string]uint64, len(specs))
			for _, r := range sim.Results() {
				misses[r.Spec.Label()] = r.TLB.Misses
			}
			return misses, nil
		},
		sweep.Options{Workers: opt.Workers, Progress: opt.Progress, Name: "multiprog solo"})
	if err != nil {
		return nil, 0, err
	}
	solo := make(map[string]uint64)
	for _, m := range soloRuns {
		for label, misses := range m {
			solo[label] += misses
		}
	}

	// Shared run: round-robin quanta over all streams on one simulator.
	sim, err := NewSimulator(SimConfig{Frames: framesFor(opt), Specs: specs, Seed: opt.Seed})
	if err != nil {
		return nil, 0, err
	}
	readers := make([]*quantumStream, len(streams))
	for i, b := range streams {
		r, err := trace.NewBatchReader(bytes.NewReader(b))
		if err != nil {
			return nil, 0, err
		}
		readers[i] = &quantumStream{r: r, buf: make(trace.Batch, 0, trace.DefaultBatchSize)}
	}
	opt.Progress.Stepf("multiprog: shared run (%d streams, %d-ref quanta)", len(readers), opt.QuantumRefs)
	live := len(readers)
	for live > 0 {
		live = 0
		for i, r := range readers {
			if r == nil {
				continue
			}
			if opt.FlushOnSwitch {
				sim.FlushTLBs()
			}
			done, err := r.replayQuantum(sim, ASID(i+1), opt.QuantumRefs)
			if err != nil {
				return nil, 0, err
			}
			if done {
				readers[i] = nil
				continue
			}
			live++
		}
	}

	var out []MultiprogramResult
	for _, r := range sim.Results() {
		label := r.Spec.Label()
		res := MultiprogramResult{
			Label:        label,
			SharedMisses: r.TLB.Misses,
			SoloMisses:   solo[label],
		}
		if res.SoloMisses > 0 {
			res.InterferencePct = 100 * (float64(res.SharedMisses) - float64(res.SoloMisses)) / float64(res.SoloMisses)
		}
		out = append(out, res)
	}
	total := uint64(0)
	for _, n := range refs {
		total += n
	}
	return out, total, nil
}

// framesFor sizes memory: all processes resident simultaneously, with
// headroom.
func framesFor(opt MultiprogramOptions) int {
	return int(4 * opt.FootprintBytes / PageSize * uint64(len(opt.Workloads)))
}

// replayStream replays a whole captured stream into the simulator under
// one address space, one ProcessBatchFrom call per decoded frame.
func replayStream(data []byte, sim *Simulator, asid ASID) error {
	r, err := trace.NewBatchReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	_, err = sim.ReplayFrom(asid, r)
	return err
}

// quantumStream slices a v2 capture into scheduling quanta: decoded frames
// are carried across quantum boundaries and delivered in sub-batches, so a
// 50k-ref quantum costs ~12 ProcessBatchFrom calls rather than 50k
// AccessFrom calls while keeping the exact per-record cutover points.
type quantumStream struct {
	r   *trace.BatchReader
	buf trace.Batch // decoded frame being drained
	off int         // records of buf already delivered
}

// replayQuantum feeds up to n records into the simulator under asid,
// reporting whether the stream ended.
func (s *quantumStream) replayQuantum(sim *Simulator, asid ASID, n uint64) (done bool, err error) {
	for n > 0 {
		if s.off == len(s.buf) {
			b, err := s.r.ReadBatch(s.buf)
			if errors.Is(err, io.EOF) {
				return true, nil
			}
			if err == nil {
				err = memsim.CheckBatch(b)
			}
			if err != nil {
				return false, err
			}
			s.buf, s.off = b, 0
		}
		k := len(s.buf) - s.off
		if uint64(k) > n {
			k = int(n)
		}
		sim.ProcessBatchFrom(asid, s.buf[s.off:s.off+k])
		s.off += k
		n -= uint64(k)
	}
	return false, nil
}
