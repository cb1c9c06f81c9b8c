// Package sweep is the deterministic fan-out engine behind every
// experiment driver: a sweep is a list of independent, seed-deterministic
// points (one simulation each — a fresh workload and simulator per point,
// by design, so reference streams replay identically), and Run executes
// them on a bounded worker pool while keeping the output indistinguishable
// from a sequential run.
//
// Determinism rests on three properties:
//
//  1. Points share no state. Each point constructs its own simulator and
//     workload from its own seed; the engine never passes anything between
//     points.
//  2. Results are collected in submission-index order, not completion
//     order. out[i] is always point i's result, so folds over the result
//     slice see exactly the sequence the sequential loop produced.
//  3. Errors are deterministic too: when points fail, Run returns the
//     error of the lowest-indexed failing point — the same error the
//     sequential loop would have stopped on — regardless of which worker
//     noticed a failure first.
//
// Workers=1 is the exact legacy path: points run in order on the calling
// goroutine with no pool, no channels, and no extra synchronization.
package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"mosaic/internal/obs"
)

// Options configures one Run.
type Options struct {
	// Workers bounds the worker pool. 0 means runtime.GOMAXPROCS(0);
	// 1 runs every point in order on the calling goroutine (the exact
	// sequential path); values above the point count are clamped.
	Workers int
	// Progress, when non-nil, receives a monotonic "point k/n done" line
	// as points complete. Nil-safe (the no-terminal case).
	Progress *obs.Progress
	// Name labels the progress line ("fig6 graph500").
	Name string
}

// PoolSize resolves the worker pool size Run uses for n points: Workers,
// with 0 meaning runtime.GOMAXPROCS(0), clamped to n.
func (o Options) PoolSize(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Run executes fn over every point on a bounded worker pool and returns
// the results in submission-index order: out[i] = fn(ctx, i, points[i]).
// The first point error (lowest index) cancels the sweep's context so
// in-flight points can abort early and unstarted points never run; Run
// returns that error after all started points have settled. A canceled
// parent context is returned as its ctx.Err().
func Run[P, R any](ctx context.Context, points []P, fn func(ctx context.Context, i int, p P) (R, error), opt Options) ([]R, error) {
	n := len(points)
	out := make([]R, n)
	if n == 0 {
		return out, nil
	}
	counter := opt.Progress.StartCount(opt.Name, n)

	if opt.PoolSize(n) == 1 {
		for i, p := range points {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(ctx, i, p)
			if err != nil {
				return nil, err
			}
			out[i] = r
			counter.Step()
		}
		return out, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < opt.PoolSize(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				r, err := fn(ctx, i, points[i])
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				out[i] = r
				counter.Step()
			}
		}()
	}
	wg.Wait()
	// Lowest-indexed error wins, so the reported failure matches what the
	// sequential loop would have returned no matter which worker lost the
	// race to cancel.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
