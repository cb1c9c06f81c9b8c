package daemon

import (
	"fmt"
	"io"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mosaic/internal/memsim"
	"mosaic/internal/obs"
	"mosaic/internal/results"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
)

// SessionConfig is the per-session simulator shape, parsed from the POST
// /sessions query string. It mirrors tracegen's replay flags: one vanilla
// and one mosaic TLB at the same geometry, driven by the streamed trace.
type SessionConfig struct {
	// Label tags the session in /sessions and in event scopes.
	Label string
	// Entries and Arity shape the TLB pair (defaults 256 / 4, at most
	// maxSessionEntries / maxSessionArity).
	Entries int
	Arity   int
	// Frames is the simulated DRAM size in 4 KiB frames (default 1<<18, at
	// most maxSessionFrames).
	Frames int
	// Sample is the sampling/publication window in references.
	Sample uint64
	// Seed seeds the placement hash.
	Seed uint64
}

// Upper bounds on a session's simulator shape, so one request cannot make
// the daemon allocate without limit. At the bounds memsim.New holds about
// 128 MB of heap for frames and 18 MB for entries × arity.
const (
	maxSessionEntries = 1 << 16
	maxSessionArity   = 64 // the paper's largest
	maxSessionFrames  = 1 << 22
)

// sessionConfigFromQuery parses the query string, filling defaults and
// rejecting malformed or out-of-range numbers.
func sessionConfigFromQuery(q url.Values, defaultSample uint64) (SessionConfig, error) {
	cfg := SessionConfig{
		Label:   q.Get("label"),
		Entries: 256,
		Arity:   4,
		Frames:  1 << 18,
		Sample:  defaultSample,
		Seed:    1,
	}
	for _, p := range []struct {
		key      string
		dst      *int
		min, max int
	}{
		{"entries", &cfg.Entries, 1, maxSessionEntries},
		{"arity", &cfg.Arity, 1, maxSessionArity},
		{"frames", &cfg.Frames, 1, maxSessionFrames},
	} {
		if v := q.Get(p.key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < p.min || n > p.max {
				return cfg, fmt.Errorf("daemon: bad %s=%q (want integer in [%d, %d])", p.key, v, p.min, p.max)
			}
			*p.dst = n
		}
	}
	for _, p := range []struct {
		key string
		dst *uint64
		min uint64
	}{
		{"sample", &cfg.Sample, 1},
		{"seed", &cfg.Seed, 0},
	} {
		if v := q.Get(p.key); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n < p.min {
				return cfg, fmt.Errorf("daemon: bad %s=%q (want unsigned integer >= %d)", p.key, v, p.min)
			}
			*p.dst = n
		}
	}
	return cfg, nil
}

// simConfig is the session's simulator: the vanilla/mosaic TLB pair at
// the configured geometry, reporting into ob.
func (c SessionConfig) simConfig(ob *obs.Observer) memsim.Config {
	return memsim.Config{
		Frames: c.Frames,
		Specs: []memsim.TLBSpec{
			{Geometry: tlb.Geometry{Entries: c.Entries, Ways: 8}},
			{Geometry: tlb.Geometry{Entries: c.Entries, Ways: 8}, Arity: c.Arity},
		},
		Seed: c.Seed,
		Obs:  ob,
	}
}

// Session states, as reported in GET /sessions.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// Session is one streaming simulation. Its simulator, registry, sampler,
// and event log are owned exclusively by the pool worker that runs it;
// concurrent observers see only the lock-free Publisher and the mu-guarded
// lifecycle fields below.
type Session struct {
	ID  int
	cfg SessionConfig

	// pub exists from construction, so /metrics and /sessions/{id}/metrics
	// scrape cleanly (ok=false → skipped / 404) while the session is still
	// queued. The worker wires it to the sampler when the run starts.
	pub  *obs.Publisher
	ob   *obs.Observer
	refs atomic.Uint64
	done chan struct{}

	mu      sync.Mutex
	state   string
	err     error
	final   *results.File
	started time.Time
	ended   time.Time
}

func newSession(id int, cfg SessionConfig) *Session {
	ob := obs.NewObserver(cfg.Sample)
	return &Session{
		ID:    id,
		cfg:   cfg,
		ob:    ob,
		pub:   obs.NewPublisher(ob.Metrics),
		done:  make(chan struct{}),
		state: stateQueued,
	}
}

// run executes the whole session on a pool worker: build the simulator,
// replay the streamed trace into it, finalize, and publish the result. It
// settles the session's state but leaves done open: the daemon closes it
// once its own counters account for the session.
func (sess *Session) run(body io.Reader) {
	sess.mu.Lock()
	sess.state = stateRunning
	sess.started = time.Now()
	sess.mu.Unlock()

	sim, err := memsim.New(sess.cfg.simConfig(sess.ob))
	if err != nil {
		sess.fail(err)
		return
	}
	sim.RegisterLive(sess.pub)
	sess.ob.Sampler.OnWindow(func(refs uint64) { sess.refs.Store(refs) })
	sess.pub.AttachSampler(sess.ob.Sampler)

	tr, err := trace.NewBatchReader(body)
	if err != nil {
		sess.fail(err)
		return
	}
	run := obs.NewSpan("run", 0)
	n, err := tr.ReplayBatches(sim)
	if err != nil {
		sess.fail(fmt.Errorf("after %d refs: %w", n, err))
		return
	}
	run.Finish(sess.ob, n)

	report := obs.NewSpan("report", n)
	reg := sim.FinalizeMetrics()

	f := results.New("mosaicd-session")
	f.Config["session"] = sess.ID
	if sess.cfg.Label != "" {
		f.Config["label"] = sess.cfg.Label
	}
	f.Config["entries"] = sess.cfg.Entries
	f.Config["arity"] = sess.cfg.Arity
	f.Config["frames"] = sess.cfg.Frames
	f.Config["sample"] = sess.cfg.Sample
	f.Config["seed"] = sess.cfg.Seed
	f.AddSampler("", sess.ob.Sampler)
	report.Finish(sess.ob, n)
	f.AddSnapshot("", reg.Snapshot())
	f.AddEvents(sess.cfg.Label, sess.ob.Events)

	// One last publication so the lock-free view carries the finalized
	// counters (tlb.*.hit breakdowns, phase histogram) too.
	sess.refs.Store(n)
	sess.pub.Publish(n)

	sess.mu.Lock()
	sess.state = stateDone
	sess.final = f
	sess.ended = time.Now()
	sess.mu.Unlock()
}

// fail settles the session in the failed state. Called at most once, by
// the worker (or by the daemon when submission itself was refused).
func (sess *Session) fail(err error) {
	sess.mu.Lock()
	sess.state = stateFailed
	sess.err = err
	sess.ended = time.Now()
	sess.mu.Unlock()
}

// Result returns the final results file once the session is done, or the
// run error once it failed; before either it reports in-progress.
func (sess *Session) Result() (*results.File, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	switch sess.state {
	case stateDone:
		return sess.final, nil
	case stateFailed:
		return nil, sess.err
	default:
		return nil, fmt.Errorf("session %d is %s", sess.ID, sess.state)
	}
}

// ResultsFile is the GET /sessions/{id}/results.json body: the final file
// after completion, otherwise a live file built from the latest
// publication (marked config.live = true so consumers can tell them
// apart). Errors when the session failed or has not published yet.
func (sess *Session) ResultsFile() (*results.File, error) {
	sess.mu.Lock()
	state, err, final := sess.state, sess.err, sess.final
	sess.mu.Unlock()
	switch state {
	case stateDone:
		return final, nil
	case stateFailed:
		return nil, err
	}
	pub, ok := sess.pub.Load()
	if !ok {
		return nil, fmt.Errorf("session %d has not published yet", sess.ID)
	}
	f := results.New("mosaicd-session")
	f.Config["session"] = sess.ID
	if sess.cfg.Label != "" {
		f.Config["label"] = sess.cfg.Label
	}
	f.Config["live"] = true
	f.Config["refs"] = pub.Refs
	f.AddSnapshot("", pub.Snap)
	return f, nil
}

// Published exposes the session's latest lock-free publication.
func (sess *Session) Published() (obs.Published, bool) { return sess.pub.Load() }

// Refs is the session's reference clock as of the last window boundary.
func (sess *Session) Refs() uint64 { return sess.refs.Load() }

// info renders one GET /sessions table row.
func (sess *Session) info(now time.Time) sessionInfo {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	inf := sessionInfo{
		ID:    sess.ID,
		Label: sess.cfg.Label,
		State: sess.state,
		Refs:  sess.refs.Load(),
	}
	switch sess.state {
	case stateRunning:
		inf.Seconds = now.Sub(sess.started).Seconds()
	case stateDone, stateFailed:
		inf.Seconds = sess.ended.Sub(sess.started).Seconds()
	}
	if sess.err != nil {
		inf.Error = sess.err.Error()
	}
	return inf
}
