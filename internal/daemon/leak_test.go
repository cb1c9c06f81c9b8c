package daemon

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// TestNoGoroutineOutlivesDrain: after one completed session, Drain
// returns only once every goroutine the server started has exited. The
// request goes straight to the handler, so no network goroutines are
// involved.
func TestNoGoroutineOutlivesDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Config{Workers: 2, SampleEvery: 64})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/sessions", bytes.NewReader(traceBytes(t, 1000, 16)))
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /sessions: %d: %s", rec.Code, rec.Body)
	}
	srv.Drain()

	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutine(s) outlive Drain:\n%s",
				runtime.NumGoroutine()-before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
