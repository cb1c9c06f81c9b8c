package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// settled fails the test unless the goroutine count falls back to before
// within a second: every goroutine the code under test started must have
// exited once its owner returned.
func settled(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutine(s) outlive their owner:\n%s",
				runtime.NumGoroutine()-before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNoGoroutineOutlivesRun: Run's workers exit before Run returns, on
// success, on a failing point, and on a cancelled parent context.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	points := make([]int, 32)
	for i := range points {
		points[i] = i
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("ok/workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			_, err := Run(context.Background(), points, func(_ context.Context, _, p int) (int, error) {
				return p, nil
			}, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			settled(t, before)
		})
	}
	t.Run("fail-fast", func(t *testing.T) {
		before := runtime.NumGoroutine()
		boom := errors.New("boom")
		_, err := Run(context.Background(), points, func(ctx context.Context, i, p int) (int, error) {
			if i == 2 {
				return 0, boom
			}
			select {
			case <-ctx.Done():
			case <-time.After(time.Second):
			}
			return p, nil
		}, Options{Workers: 4})
		if !errors.Is(err, boom) {
			t.Fatalf("Run error = %v, want %v", err, boom)
		}
		settled(t, before)
	})
	t.Run("parent-cancel", func(t *testing.T) {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{}, len(points))
		go func() {
			<-started
			cancel()
		}()
		_, err := Run(ctx, points, func(ctx context.Context, _, _ int) (int, error) {
			started <- struct{}{}
			<-ctx.Done()
			return 0, ctx.Err()
		}, Options{Workers: 4})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run error = %v, want %v", err, context.Canceled)
		}
		settled(t, before)
	})
}
