package sweep

import (
	"errors"
	"runtime"
	"sync"
)

// Run handles the batch shape: a known point list, executed once. A
// long-running service (cmd/mosaicd) has the dual shape — an open-ended
// stream of independent jobs arriving at unpredictable times — so Pool is
// the persistent counterpart: a fixed set of workers pulling from a
// bounded queue, with explicit backpressure (TrySubmit fails fast when
// the queue is full, so an HTTP front end can answer 503 instead of
// buffering unboundedly) and a graceful drain (stop accepting, finish
// everything already admitted).
//
// Determinism is the caller's concern here, not the pool's: unlike Run,
// jobs are fire-and-forget closures with no result ordering. Sessions
// stay deterministic the same way sweep points do — each job owns a fully
// isolated simulator and registry, and nothing is shared between jobs.

// Errors TrySubmit reports instead of blocking.
var (
	// ErrPoolSaturated means the queue bound was hit: shed load upstream.
	ErrPoolSaturated = errors.New("sweep: pool queue is full")
	// ErrPoolDraining means Drain has been called: no new work is admitted.
	ErrPoolDraining = errors.New("sweep: pool is draining")
)

// Pool is a persistent bounded worker pool. Safe for concurrent use.
type Pool struct {
	mu       sync.Mutex
	jobs     chan func()
	draining bool
	wg       sync.WaitGroup
}

// NewPool starts a pool with the given number of workers (0 means
// runtime.GOMAXPROCS(0)) and queue slots beyond the workers (0 means no
// queue: a job is admitted only when a worker can take it promptly).
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{jobs: make(chan func(), workers+queue)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// TrySubmit admits job without ever blocking: it returns ErrPoolDraining
// after Drain has begun and ErrPoolSaturated when the queue is full. A
// nil error means a worker will run the job (even if Drain starts first).
func (p *Pool) TrySubmit(job func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return ErrPoolDraining
	}
	// The send happens under the mutex but never blocks: the select has a
	// default case. The mutex only fences the draining flag against a
	// concurrent close.
	select {
	case p.jobs <- job:
		return nil
	default:
		return ErrPoolSaturated
	}
}

// Drain stops admissions and waits until every admitted job has finished.
// Idempotent and safe to call from several goroutines; all callers return
// once the pool is empty.
func (p *Pool) Drain() {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
