package main

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"time"

	"mosaic"
)

// traceReps is how many rounds the traced run makes over its cell: each
// round runs the cell untraced, then traced, then every ladder rung once,
// so machine drift hits all of them alike. Each reports its median.
const traceReps = 3

// replayBatch is the batch size the ladder replays the captured stream in:
// the size RunBatch delivers.
const replayBatch = 4096

// traceDump is everything a traced run keeps in memory and writes out at
// exit: the spans, the ladder and the per-call TouchVA histograms.
type traceDump struct {
	Spans  []span       `json:"spans"`
	Ladder []rungResult `json:"ladder"`
	// Touch holds TouchVA call times by AccessResult ("hit",
	// "minor-fault", "major-fault"); TimerNs is the clock-read cost
	// already subtracted from the vm.*_ns metrics but not from these.
	Touch   map[string]*touchHist `json:"touch"`
	TimerNs float64               `json:"timer_ns"`
}

// span is one timed interval of a traced run. Parent is the enclosing
// span's ID, 0 for a root; times are nanoseconds since the run started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Refs    int    `json:"refs,omitempty"`
}

// spanLog holds a run's spans in memory.
type spanLog struct {
	epoch time.Time
	spans []span
}

// add records a finished span and returns its ID.
func (l *spanLog) add(name string, parent int, start, end time.Time, refs int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(l.epoch).Nanoseconds(), EndNs: end.Sub(l.epoch).Nanoseconds(), Refs: refs})
	return id
}

// open starts a span whose end close stamps later.
func (l *spanLog) open(name string, parent int) int {
	now := time.Now()
	return l.add(name, parent, now, now, 0)
}

func (l *spanLog) close(id int, end time.Time) { l.spans[id-1].EndNs = end.Sub(l.epoch).Nanoseconds() }

// tracer is the timing BatchSink wrapped around one consumer of the traced
// cell: each batch is a "sim" span, each gap before a batch a "generate"
// span. It copies every batch into the captured stream when capture is set.
type tracer struct {
	next    mosaic.BatchSink
	log     *spanLog
	parent  int
	last    time.Time
	capture *[]mosaic.Ref
	genNs   int64
	simNs   int64
	batchUs []float64
}

func (t *tracer) ProcessBatch(b mosaic.Batch) {
	start := time.Now()
	t.next.ProcessBatch(b)
	end := time.Now()
	t.log.add("generate", t.parent, t.last, start, len(b))
	t.log.add("sim", t.parent, start, end, len(b))
	t.genNs += start.Sub(t.last).Nanoseconds()
	t.simNs += end.Sub(start).Nanoseconds()
	t.batchUs = append(t.batchUs, float64(end.Sub(start).Nanoseconds())/1e3)
	if t.capture != nil {
		*t.capture = append(*t.capture, b...)
	}
	// Span bookkeeping and the capture copy fall between spans, so they
	// show up only in trace.overhead_pct.
	t.last = time.Now()
}

// runTraced runs the cell once with a tracer around each consumer.
func runTraced(c cell, log *spanLog, capture *[]mosaic.Ref) (cellRun, []*tracer, error) {
	root := log.open("cell", 0)
	var tracers []*tracer
	run, err := c.run(func(i int, next mosaic.BatchSink) mosaic.BatchSink {
		name := "memsim"
		if c.sim == nil {
			name = "os-" + c.modes[i].String()
		}
		t := &tracer{next: next, log: log, parent: log.open(name, root), last: time.Now()}
		if i == 0 {
			t.capture = capture
		}
		tracers = append(tracers, t)
		return t
	})
	for _, t := range tracers {
		log.close(t.parent, t.last)
	}
	log.close(root, time.Now())
	return run, tracers, err
}

// runtimeNames are the runtime/metrics read around the measured pass.
var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

// readRuntime samples runtimeNames. The CPU classes are snapshots taken at
// the last GC, so callers force one before reading.
func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		}
	}
	return out
}

// traceRun is the traced run. It measures one untraced pass for the runtime
// metrics, then follows the workload's representative cell:
// untraced and traced in turn, a layer ladder over the captured stream,
// and per-call TouchVA timing. Tracing never feeds the end-to-end metrics.
func traceRun(w workload, seed uint64, want string) (result, error) {
	res := result{Workload: w.name, Metrics: metricSet{}}
	chk := checker{want: want, res: &res}
	m := res.Metrics
	refs, problems, err := w.simulatedRefs(seed)
	if err != nil {
		return res, err
	}
	chk.check(problems...)

	warm, err := w.pass(seed)
	if err != nil {
		return res, err
	}
	chk.pass(warm)
	res.Digest = warm.digest
	runtime.GC()
	rt0 := readRuntime()
	o, err := w.pass(seed)
	runtime.GC()
	rt1 := readRuntime()
	if err != nil {
		return res, err
	}
	chk.pass(o)
	m.put("gc.cpu_frac", (rt1[0]-rt0[0])/((rt1[1]-rt0[1])-(rt1[2]-rt0[2])), nil)
	m.put("heap.alloc_mb", (rt1[3]-rt0[3])/1e6, nil)
	m.put("heap.allocs_per_kref", (rt1[4]-rt0[4])/(refs/1000), nil)

	c := w.tracedCell(seed)
	log := &spanLog{epoch: time.Now()}
	stream := make([]mosaic.Ref, 0, c.maxRefs)
	lad := newLadder(c, log)
	var plain, traced, simNs, genNs, batchUs []float64
	var last cellRun
	for i := 0; i < traceReps; i++ {
		runtime.GC()
		t0 := time.Now()
		run, err := c.run(nil)
		plain = append(plain, time.Since(t0).Seconds())
		if err != nil {
			return res, err
		}
		chk.same(run.view, o.cellView, "untraced cell")

		var capture *[]mosaic.Ref
		if i == 0 {
			capture = &stream
		}
		runtime.GC()
		t0 = time.Now()
		run, tracers, err := runTraced(c, log, capture)
		traced = append(traced, time.Since(t0).Seconds())
		if err != nil {
			return res, err
		}
		chk.same(run.view, o.cellView, "traced cell")
		var sim, gen int64
		for _, t := range tracers {
			sim += t.simNs
			gen += t.genNs
			batchUs = append(batchUs, t.batchUs...)
		}
		simNs = append(simNs, float64(sim)/float64(run.delivered))
		genNs = append(genNs, float64(gen)/float64(run.delivered))
		last = run

		if err := lad.rep(stream); err != nil {
			return res, err
		}
	}
	memsimNs := median(simNs)
	m.put("memsim.ns_per_ref", memsimNs, simNs)
	m.put("workloads.ns_per_ref", median(genNs), genNs)
	m.put("memsim.batch_us_p50", quantile(batchUs, 0.50), nil)
	m.put("memsim.batch_us_p99", quantile(batchUs, 0.99), nil)
	m.put("trace.overhead_pct", 100*(median(traced)/median(plain)-1), nil)
	var swapIO uint64
	for _, sys := range last.systems {
		swapIO += sys.Device().TotalIO()
	}
	if last.sim != nil {
		swapIO += last.sim.OS().Device().TotalIO()
	}
	m.put("swap.io_pages", float64(swapIO), nil)
	lad.report(m, memsimNs)

	touch, timer, err := timeTouches(c, stream)
	if err != nil {
		return res, err
	}
	hit, minor, major := touch[mosaic.Hit], touch[mosaic.MinorFault], touch[mosaic.MajorFault]
	m.put("vm.hit_ratio", float64(hit.Count)/float64(hit.Count+minor.Count+major.Count), nil)
	m.put("vm.hit_ns", hit.meanNs()-timer, nil)
	m.put("vm.fault_ns", float64(minor.SumNs+major.SumNs)/float64(minor.Count+major.Count)-timer, nil)
	m.put("vm.major_faults", float64(major.Count), nil)

	res.Trace = &traceDump{Spans: log.spans, Ladder: lad.results(), TimerNs: timer, Touch: map[string]*touchHist{}}
	for r, h := range touch {
		res.Trace.Touch[r.String()] = h
	}
	return res, nil
}

// rungResult is one rung of the layer ladder: the captured stream replayed
// into the consumer that adds the rung's layer.
type rungResult struct {
	Name     string    `json:"name"`
	NsPerRef float64   `json:"ns_per_ref"`
	Samples  []float64 `json:"samples"`
}

// ladder replays the captured stream into one fresh consumer per rung,
// once per rep call, and keeps every rung's ns/ref samples, plus the
// simulators of each memsim rung's last repetition, whose simulated
// statistics feed the per-layer ratios.
type ladder struct {
	plan     []ladderRung
	modes    []mosaic.Mode
	cellRung string
	log      *spanLog
	samples  [][]float64
	// osMosaic samples the os rung's mosaic-mode System alone: the OS layer
	// memsim runs, which the TLB rungs are measured against.
	osMosaic []float64
	sims     map[string]*mosaic.Simulator
}

func newLadder(c cell, log *spanLog) *ladder {
	plan, cellRung := ladderPlan(c)
	return &ladder{plan: plan, modes: c.modes, cellRung: cellRung, log: log,
		samples: make([][]float64, len(plan)), sims: map[string]*mosaic.Simulator{}}
}

// ladderRung is one rung's recipe: fresh consumers each repetition.
type ladderRung struct {
	name  string
	build func() ([]mosaic.BatchSink, error)
}

// replaySink only walks the references: the ladder's floor.
type replaySink struct{ sum uint64 }

func (s *replaySink) ProcessBatch(b mosaic.Batch) {
	for _, r := range b {
		s.sum ^= r.VA()
	}
}

// osRungSink is the os rung: the TouchVA and Translate memsim performs for
// every reference before any TLB work.
type osRungSink struct {
	sys *mosaic.System
	sum uint64
}

func (s *osRungSink) ProcessBatch(b mosaic.Batch) {
	for _, r := range b {
		va := r.VA()
		s.sys.TouchVA(1, va, r.Write())
		pfn, _ := s.sys.Translate(1, mosaic.VPN(va/mosaic.PageSize))
		s.sum ^= uint64(pfn)
	}
}

// ladderPlan derives the rungs from the cell: replay → os → +vanilla →
// +mosaic → +walkcache → +caches, each adding one layer to the last. A cell
// with no TLB (Table 4) gets the cache-xsbench design points on its memory.
func ladderPlan(c cell) (plan []ladderRung, cellRung string) {
	var full mosaic.SimConfig
	cellRung = "os"
	if c.sim != nil {
		full = *c.sim
		cellRung = "+mosaic"
		if full.EnableWalkCache {
			cellRung = "+walkcache"
		}
		if full.EnableCaches {
			cellRung = "+caches"
		}
	} else {
		geom := mosaic.TLBGeometry{Entries: 256, Ways: 8}
		full = mosaic.SimConfig{Frames: c.frames, Seed: c.seed,
			Specs: []mosaic.TLBSpec{{Geometry: geom}, {Geometry: geom, Arity: 4}}}
	}
	sim := func(specs []mosaic.TLBSpec, walkCache, caches bool) func() ([]mosaic.BatchSink, error) {
		return func() ([]mosaic.BatchSink, error) {
			cfg := full
			cfg.Specs, cfg.EnableWalkCache, cfg.EnableCaches = specs, walkCache, caches
			s, err := mosaic.NewSimulator(cfg)
			return []mosaic.BatchSink{s}, err
		}
	}
	var vanilla []mosaic.TLBSpec
	for _, s := range full.Specs {
		if s.Arity == 0 && s.Coalesce == 0 {
			vanilla = append(vanilla, s)
		}
	}
	plan = []ladderRung{
		{"replay", func() ([]mosaic.BatchSink, error) { return []mosaic.BatchSink{&replaySink{}}, nil }},
		{"os", func() ([]mosaic.BatchSink, error) {
			var sinks []mosaic.BatchSink
			for _, m := range c.modes {
				sys, err := mosaic.NewSystem(mosaic.SystemConfig{Frames: c.frames, Mode: m, Seed: c.seed})
				if err != nil {
					return nil, err
				}
				sinks = append(sinks, &osRungSink{sys: sys})
			}
			return sinks, nil
		}},
		{"+vanilla", sim(vanilla, false, false)},
		{"+mosaic", sim(full.Specs, false, false)},
		{"+walkcache", sim(full.Specs, true, false)},
		{"+caches", sim(full.Specs, true, true)},
	}
	return plan, cellRung
}

// rep replays the stream into every rung once, under one "ladder" span.
func (l *ladder) rep(stream []mosaic.Ref) error {
	root := l.log.open("ladder", 0)
	defer func() { l.log.close(root, time.Now()) }()
	for i, r := range l.plan {
		sinks, err := r.build()
		if err != nil {
			return fmt.Errorf("ladder rung %s: %w", r.name, err)
		}
		runtime.GC() // collect the previous rung's garbage outside the timing
		var total time.Duration
		for j, s := range sinks {
			start := time.Now()
			for off := 0; off < len(stream); off += replayBatch {
				s.ProcessBatch(stream[off:min(off+replayBatch, len(stream))])
			}
			end := time.Now()
			l.log.add("rung "+r.name, root, start, end, len(stream))
			total += end.Sub(start)
			if r.name == "os" && l.modes[j] == mosaic.ModeMosaic {
				l.osMosaic = append(l.osMosaic, float64(end.Sub(start).Nanoseconds())/float64(len(stream)))
			}
			if sim, ok := s.(*mosaic.Simulator); ok {
				l.sims[r.name] = sim
			}
		}
		l.samples[i] = append(l.samples[i], float64(total.Nanoseconds())/float64(len(stream)*len(sinks)))
	}
	return nil
}

// results lists every rung's median ns/ref and samples.
func (l *ladder) results() []rungResult {
	var out []rungResult
	for i, r := range l.plan {
		out = append(out, rungResult{Name: r.name, NsPerRef: median(l.samples[i]), Samples: l.samples[i]})
	}
	return out
}

// rung returns a rung's median ns/ref.
func (l *ladder) rung(name string) float64 {
	for i, r := range l.plan {
		if r.name == name {
			return median(l.samples[i])
		}
	}
	return 0
}

// report turns the ladder into per-layer metrics: each rung's delta over
// the one below is that layer's self time. The deltas up to the rung that
// matches the traced cell sum to that rung, which should agree with the
// cell's own memsim.ns_per_ref; ladder.gap_pct is the difference.
func (l *ladder) report(m metricSet, memsimNs float64) {
	replay := l.rung("replay")
	var mosaics int
	for _, r := range l.sims["+mosaic"].Results() {
		if r.Spec.Arity != 0 {
			mosaics++
		}
	}
	m.put("ladder.replay_ns_per_ref", replay, nil)
	m.put("vm.ns_per_ref", l.rung("os")-replay, nil)
	m.put("tlb.vanilla.ns_per_ref", l.rung("+vanilla")-median(l.osMosaic), nil)
	m.put("tlb.mosaic.ns_per_unit_ref", (l.rung("+mosaic")-l.rung("+vanilla"))/float64(max(mosaics, 1)), nil)
	m.put("walkcache.ns_per_ref", l.rung("+walkcache")-l.rung("+mosaic"), nil)
	m.put("cache.ns_per_ref", l.rung("+caches")-l.rung("+walkcache"), nil)
	sum := l.rung(l.cellRung)
	m.put("ladder.sum_ns_per_ref", sum, nil)
	m.put("ladder.gap_pct", 100*(sum/memsimNs-1), nil)

	var walks, walkRefs uint64
	for _, r := range l.sims["+mosaic"].Results() {
		walks += r.Walks
		walkRefs += r.WalkAccesses
		switch r.Spec.Label() {
		case "Vanilla":
			m.put("tlb.vanilla.miss_ratio", r.TLB.MissRate(), nil)
		case "Mosaic-4":
			m.put("tlb.mosaic_4.miss_ratio", r.TLB.MissRate(), nil)
		}
	}
	m.put("pagetable.walk_refs_per_miss", float64(walkRefs)/float64(walks), nil)

	// Walk-cache lookups are the upper-level reads of each walk: those it
	// absorbed plus those still issued, which are all but the leaf read.
	var pwcHits, issued, pwcWalks uint64
	for _, r := range l.sims["+walkcache"].Results() {
		pwcHits += r.WalkCacheHits
		issued += r.WalkAccesses
		pwcWalks += r.Walks
	}
	m.put("walkcache.hit_ratio", float64(pwcHits)/float64(pwcHits+issued-pwcWalks), nil)

	levels := []string{"cache.L1.miss_ratio", "cache.L2.miss_ratio", "cache.L3.miss_ratio"}
	hits := make([]uint64, len(levels))
	misses := make([]uint64, len(levels))
	var amat float64
	results := l.sims["+caches"].Results()
	for _, r := range results {
		amat += r.AMAT / float64(len(results))
		for i, s := range r.CacheStats {
			if i < len(levels) {
				hits[i] += s.Hits
				misses[i] += s.Misses
			}
		}
	}
	for i, name := range levels {
		m.put(name, float64(misses[i])/float64(hits[i]+misses[i]), nil)
	}
	m.put("cache.amat_cycles", amat, nil)
}

// touchHist is a histogram of TouchVA call times in log2 nanosecond
// buckets: bucket k counts calls in [2^(k-1), 2^k) ns.
type touchHist struct {
	Count   uint64     `json:"count"`
	SumNs   uint64     `json:"sum_ns"`
	Buckets [40]uint64 `json:"log2_ns_buckets"`
}

func (h *touchHist) add(d time.Duration) {
	ns := uint64(max(d, 0))
	h.Count++
	h.SumNs += ns
	h.Buckets[min(bits.Len64(ns), len(h.Buckets)-1)]++
}

func (h *touchHist) meanNs() float64 { return float64(h.SumNs) / float64(max(h.Count, 1)) }

// timeTouches replays the captured stream into a fresh System per OS mode
// of the cell, timing every TouchVA call on its own, and returns the
// histograms by AccessResult along with the clock-read cost included in
// each timing.
func timeTouches(c cell, stream []mosaic.Ref) (map[mosaic.AccessResult]*touchHist, float64, error) {
	hists := map[mosaic.AccessResult]*touchHist{mosaic.Hit: {}, mosaic.MinorFault: {}, mosaic.MajorFault: {}}
	for _, mode := range c.modes {
		sys, err := mosaic.NewSystem(mosaic.SystemConfig{Frames: c.frames, Mode: mode, Seed: c.seed})
		if err != nil {
			return nil, 0, err
		}
		for _, r := range stream {
			t0 := time.Now()
			res := sys.TouchVA(1, r.VA(), r.Write())
			d := time.Since(t0)
			h, ok := hists[res]
			if !ok {
				return nil, 0, fmt.Errorf("TouchVA returned unknown result %v", res)
			}
			h.add(d)
		}
	}
	var empty touchHist
	for i := 0; i < 100_000; i++ {
		t0 := time.Now()
		empty.add(time.Since(t0))
	}
	return hists, empty.meanNs(), nil
}
