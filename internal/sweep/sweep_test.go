package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mosaic/internal/obs"
)

func TestRunCollectsInSubmissionOrder(t *testing.T) {
	points := make([]int, 64)
	for i := range points {
		points[i] = i
	}
	out, err := Run(context.Background(), points, func(_ context.Context, i, p int) (int, error) {
		// Early points sleep longest, so completion order inverts
		// submission order under a real pool.
		time.Sleep(time.Duration(len(points)-i) * 50 * time.Microsecond)
		return p * p, nil
	}, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d: results not in submission order", i, v, i*i)
		}
	}
}

func TestRunWorkersOneIsInline(t *testing.T) {
	var order []int
	_, err := Run(context.Background(), []int{0, 1, 2, 3}, func(_ context.Context, i, _ int) (struct{}, error) {
		// No synchronization: only legal if every point runs on the
		// calling goroutine, in order (-race would catch anything else).
		order = append(order, i)
		return struct{}{}, nil
	}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("workers=1 ran point %d at position %d; want strict order", got, i)
		}
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		boom3 := errors.New("boom at 3")
		boom5 := errors.New("boom at 5")
		_, err := Run(context.Background(), make([]int, 8), func(_ context.Context, i, _ int) (int, error) {
			switch i {
			case 3:
				return 0, boom3
			case 5:
				return 0, boom5
			}
			return i, nil
		}, Options{Workers: workers})
		if !errors.Is(err, boom3) {
			t.Errorf("workers=%d: got error %v, want the lowest-indexed point's (%v)", workers, err, boom3)
		}
	}
}

func TestRunFailFastCancelsContext(t *testing.T) {
	boom := errors.New("boom")
	var sawCancel atomic.Bool
	_, err := Run(context.Background(), make([]int, 4), func(ctx context.Context, i, _ int) (int, error) {
		if i == 0 {
			return 0, boom
		}
		// Later points either never start or observe the cancellation.
		select {
		case <-ctx.Done():
			sawCancel.Store(true)
		case <-time.After(2 * time.Second):
			t.Error("sweep context never canceled after a point error")
		}
		return i, nil
	}, Options{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
}

func TestRunHonorsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := atomic.Int64{}
		_, err := Run(ctx, make([]int, 16), func(_ context.Context, i, _ int) (int, error) {
			ran.Add(1)
			return i, nil
		}, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("workers=%d: %d points ran under a pre-canceled context", workers, n)
		}
	}
}

func TestRunEmptyPoints(t *testing.T) {
	out, err := Run(context.Background(), nil, func(_ context.Context, i, _ int) (int, error) {
		return i, nil
	}, Options{})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty sweep: out=%v err=%v", out, err)
	}
}

func TestRunProgressCountsEveryPoint(t *testing.T) {
	for _, workers := range []int{1, 8} {
		n := 0
		// Each completed point rewrites the live line exactly once; count
		// the writes through a wrapped writer.
		var mu sync.Mutex
		count := obs.NewProgressTo(writerFunc(func(b []byte) (int, error) {
			mu.Lock()
			n++
			mu.Unlock()
			return len(b), nil
		}))
		_, err := Run(context.Background(), make([]int, 24), func(_ context.Context, i, _ int) (int, error) {
			return i, nil
		}, Options{Workers: workers, Progress: count, Name: "t"})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		got := n
		mu.Unlock()
		if got != 24 {
			t.Errorf("workers=%d: progress rendered %d times, want 24", workers, got)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }

// TestRunDeterministicUnderRace re-runs one sweep at several worker counts
// and checks the collected results are identical — the engine-level half of
// the determinism pin (the experiment-level half lives in the root
// package's TestParallelMatchesSequential).
func TestRunDeterministicUnderRace(t *testing.T) {
	mk := func(workers int) []uint64 {
		out, err := Run(context.Background(), make([]int, 40), func(_ context.Context, i, _ int) (uint64, error) {
			// A deterministic per-point computation seeded by the index.
			h := uint64(i)*2654435761 + 1
			for k := 0; k < 1000; k++ {
				h ^= h << 13
				h ^= h >> 7
				h ^= h << 17
			}
			return h, nil
		}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := mk(1)
	for _, workers := range []int{2, 4, 8} {
		got := mk(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestOptionsWorkerResolution(t *testing.T) {
	cases := []struct {
		opt  Options
		n    int
		want string
	}{
		{Options{Workers: 4}, 2, "clamped to point count"},
		{Options{Workers: 1}, 8, "one"},
	}
	if w := cases[0].opt.PoolSize(cases[0].n); w != 2 {
		t.Errorf("workers(2) with Workers=4 = %d, want 2 (%s)", w, cases[0].want)
	}
	if w := cases[1].opt.PoolSize(cases[1].n); w != 1 {
		t.Errorf("workers(8) with Workers=1 = %d, want 1 (%s)", w, cases[1].want)
	}
	if w := (Options{}).PoolSize(1 << 20); w < 1 {
		t.Errorf("default workers = %d, want >= 1", w)
	}
}
