package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/results"
	"mosaic/internal/trace"
	"mosaic/internal/workloads"
)

// traceBytes builds an in-memory binary trace touching `pages` distinct
// pages round-robin for `refs` references.
func traceBytes(t testing.TB, refs, pages int) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewBatchWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := make(trace.Batch, refs)
	for i := range b {
		b[i] = trace.MakeRef(uint64(workloads.DefaultHeapBase)+uint64(i%pages)*core.PageSize, i%7 == 0)
	}
	if err := tw.WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postSession streams a trace and decodes the results-file response.
func postSession(t *testing.T, url string, query string, body io.Reader) *results.File {
	t.Helper()
	resp, err := http.Post(url+"/sessions?"+query, "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /sessions: %s: %s", resp.Status, data)
	}
	f, err := results.Decode(data, url)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestConcurrentSessionsIsolated is the daemon's acceptance criterion:
// four concurrent streaming sessions, each with a different reference
// count, finish with correct per-session metrics — no bleed between the
// isolated simulators — and the merged /metrics view accounts for all of
// them.
func TestConcurrentSessionsIsolated(t *testing.T) {
	srv := New(Config{Workers: 4, Queue: 4, SampleEvery: 128})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	refCounts := []int{1000, 2000, 3000, 4000}
	files := make([]*results.File, len(refCounts))
	var wg sync.WaitGroup
	for i, refs := range refCounts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := traceBytes(t, refs, 64)
			files[i] = postSession(t, ts.URL, fmt.Sprintf("label=s%d&sample=128", refs), bytes.NewReader(body))
		}()
	}
	wg.Wait()

	for i, f := range files {
		want := float64(refCounts[i])
		if got, ok := f.Metric("vm.access"); !ok || got != want {
			t.Errorf("session %d: vm.access = %v (ok=%v), want %v", i, got, ok, want)
		}
		if got, ok := f.Metric("sim.refs.total"); !ok || got != want {
			t.Errorf("session %d: sim.refs.total = %v (ok=%v), want %v", i, got, ok, want)
		}
		hit, _ := f.Metric("tlb.vanilla.hit")
		miss, _ := f.Metric("tlb.vanilla.miss")
		if hit+miss != want {
			t.Errorf("session %d: vanilla hit+miss = %v, want %v", i, hit+miss, want)
		}
		if f.SchemaVersion != results.SchemaVersion {
			t.Errorf("session %d: schema version %d, want %d", i, f.SchemaVersion, results.SchemaVersion)
		}
	}

	// Merged daemon view: all four sessions completed, total refs summed
	// across isolated registries.
	code, metrics := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	for _, want := range []string{
		"mosaicd_sessions_completed 4",
		"mosaicd_sessions_failed 0",
		"mosaicd_refs_total 10000",
		"vm_access 10000",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The session table reports all four done with their own ref clocks.
	code, list := get(t, ts.URL+"/sessions")
	if code != http.StatusOK {
		t.Fatalf("GET /sessions: %d", code)
	}
	var infos []sessionInfo
	if err := json.Unmarshal([]byte(list), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 4 {
		t.Fatalf("GET /sessions: %d rows, want 4", len(infos))
	}
	seen := map[uint64]bool{}
	for _, inf := range infos {
		if inf.State != stateDone {
			t.Errorf("session %d state %q, want done", inf.ID, inf.State)
		}
		seen[inf.Refs] = true
	}
	for _, refs := range refCounts {
		if !seen[uint64(refs)] {
			t.Errorf("no session finished with refs=%d (table: %+v)", refs, infos)
		}
	}
}

// TestPerSessionEndpoints: one finished session's /metrics and
// /results.json views are self-consistent with the POST response.
func TestPerSessionEndpoints(t *testing.T) {
	srv := New(Config{Workers: 2, SampleEvery: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	posted := postSession(t, ts.URL, "label=solo", bytes.NewReader(traceBytes(t, 1500, 32)))

	code, text := get(t, ts.URL+"/sessions/1/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /sessions/1/metrics: %d: %s", code, text)
	}
	if !strings.Contains(text, "vm_access 1500") {
		t.Errorf("per-session metrics missing vm_access 1500:\n%s", text)
	}
	if strings.Contains(text, "mosaicd_sessions") {
		t.Error("per-session metrics leaked daemon-level counters")
	}

	code, body := get(t, ts.URL+"/sessions/1/results.json")
	if code != http.StatusOK {
		t.Fatalf("GET /sessions/1/results.json: %d", code)
	}
	f, err := results.Decode([]byte(body), "endpoint")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := f.Metric("vm.access"); got != 1500 {
		t.Errorf("results.json vm.access = %v, want 1500", got)
	}
	pv, _ := posted.Metric("tlb.vanilla.miss")
	ev, _ := f.Metric("tlb.vanilla.miss")
	if pv != ev {
		t.Errorf("POST response and endpoint disagree on tlb.vanilla.miss: %v vs %v", pv, ev)
	}
	if _, ok := f.Config["live"]; ok {
		t.Error("finished session's results.json marked live")
	}

	for _, path := range []string{"/sessions/99/metrics", "/sessions/0/results.json", "/sessions/x/metrics"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, code)
		}
	}
}

// TestLiveScrapeMidRun: while a session is wedged mid-stream, /metrics and
// the live results.json serve its latest window without blocking on the
// simulation.
func TestLiveScrapeMidRun(t *testing.T) {
	srv := New(Config{Workers: 1, SampleEvery: 100})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	go func() {
		resp, err := http.Post(ts.URL+"/sessions?label=live&sample=100", "application/octet-stream", pr)
		if err == nil {
			resp.Body.Close()
		}
	}()

	tw, err := trace.NewBatchWriter(pw)
	if err != nil {
		t.Fatal(err)
	}
	b := make(trace.Batch, 250)
	for i := range b {
		b[i] = trace.MakeRef(uint64(workloads.DefaultHeapBase)+uint64(i%16)*core.PageSize, false)
	}
	if err := tw.WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Two windows (200 refs) are published once the pipe hands them over;
	// poll until the scrape sees the second window.
	var live *results.File
	for {
		code, body := get(t, ts.URL+"/sessions/1/results.json")
		if code == http.StatusOK {
			f, err := results.Decode([]byte(body), "live")
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := f.Metric("sim.refs.total"); ok && v >= 200 {
				live = f
				break
			}
		}
	}
	if live.Config["live"] != true {
		t.Errorf("mid-run results.json not marked live: %v", live.Config)
	}
	if v, _ := live.Metric("sim.refs.total"); v != 200 {
		t.Errorf("mid-run sim.refs.total = %v, want 200 (last full window)", v)
	}

	pw.Close() // clean EOF ends the trace; session finishes
	srv.Drain()
	code, body := get(t, ts.URL+"/sessions/1/results.json")
	if code != http.StatusOK {
		t.Fatalf("final results.json: %d", code)
	}
	f, err := results.Decode([]byte(body), "final")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Metric("vm.access"); v != 250 {
		t.Errorf("final vm.access = %v, want 250", v)
	}
}

// TestBackpressure: with one worker wedged and no queue, the next POST is
// refused with 503 and counted as rejected, never blocking the client.
func TestBackpressure(t *testing.T) {
	srv := New(Config{Workers: 1, Queue: -1, SampleEvery: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	tw, err := trace.NewBatchWriter(pw)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.Post(ts.URL+"/sessions", "application/octet-stream", pr)
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wedge the single worker: stream half a window and stall.
	if err := tw.WriteBatch(trace.Batch{trace.MakeRef(uint64(workloads.DefaultHeapBase), false)}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, 1, stateRunning)

	// The pool has one channel slot beyond the busy worker; fill it from a
	// goroutine (its POST blocks until the worker frees up) …
	fillerDone := make(chan struct{})
	go func() {
		defer close(fillerDone)
		resp, err := http.Post(ts.URL+"/sessions", "application/octet-stream", bytes.NewReader(traceBytes(t, 10, 4)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitState(t, srv, 2, stateQueued)

	// … then the next admission must shed with a 503, promptly, while both
	// earlier sessions are still outstanding.
	resp, err := http.Post(ts.URL+"/sessions", "application/octet-stream", bytes.NewReader(traceBytes(t, 10, 4)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST with wedged worker and full queue: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	code, metrics := get(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(metrics, "mosaicd_sessions_rejected 1") {
		t.Errorf("/metrics missing mosaicd_sessions_rejected 1:\n%s", metrics)
	}

	pw.Close()
	<-fillerDone
	srv.Drain()
}

// TestDrain: draining refuses new sessions but finishes the in-flight one,
// and the drain artifact is a schema-valid results file covering it.
func TestDrain(t *testing.T) {
	srv := New(Config{Workers: 2, SampleEvery: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	tw, err := trace.NewBatchWriter(pw)
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan *results.File, 1)
	go func() {
		finished <- postSession(t, ts.URL, "", pr)
	}()
	if err := tw.WriteBatch(trace.Batch{trace.MakeRef(uint64(workloads.DefaultHeapBase), false)}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, 1, stateRunning)

	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()
	// New work is refused as soon as the drain flag flips; posts that won
	// the race before it flipped were legitimately admitted, complete
	// normally, and must be accounted for below.
	raced := 0
	for {
		resp, err := http.Post(ts.URL+"/sessions", "application/octet-stream", bytes.NewReader(traceBytes(t, 10, 4)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if resp.StatusCode == http.StatusOK {
			raced++
		}
	}
	rest := make(trace.Batch, 99)
	for i := range rest {
		rest[i] = trace.MakeRef(uint64(workloads.DefaultHeapBase)+uint64(i%8)*core.PageSize, false)
	}
	if err := tw.WriteBatch(rest); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-drained

	f := <-finished
	if v, _ := f.Metric("vm.access"); v != 100 {
		t.Errorf("drained session vm.access = %v, want 100", v)
	}

	// The drain artifact: same schema as every results file, carrying every
	// finished session's metrics through the merged snapshot.
	wantAccess := float64(100 + 10*raced)
	artifact := srv.ResultsFile()
	data, err := json.Marshal(artifact)
	if err != nil {
		t.Fatal(err)
	}
	back, err := results.Decode(data, "artifact")
	if err != nil {
		t.Fatalf("drain artifact does not round-trip: %v", err)
	}
	if v, _ := back.Metric("vm.access"); v != wantAccess {
		t.Errorf("artifact vm.access = %v, want %v", v, wantAccess)
	}
	if v, _ := back.Metric("mosaicd.sessions.completed"); v != float64(1+raced) {
		t.Errorf("artifact mosaicd.sessions.completed = %v, want %d", v, 1+raced)
	}
}

// TestBadTrace: garbage bytes, or a trace in the retired v1 format, settle
// the session as failed — reported on the POST, in the session table, and
// in the failure counter.
func TestBadTrace(t *testing.T) {
	srv := New(Config{Workers: 1, SampleEvery: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	bodies := []string{"not a trace", "MTR1\x02\x04"}
	for _, body := range bodies {
		resp, err := http.Post(ts.URL+"/sessions", "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q: %d, want 400", body, resp.StatusCode)
		}
	}
	code, metrics := get(t, ts.URL+"/metrics")
	want := fmt.Sprintf("mosaicd_sessions_failed %d", len(bodies))
	if code != http.StatusOK || !strings.Contains(metrics, want) {
		t.Errorf("/metrics missing %s:\n%s", want, metrics)
	}
	for id := range bodies {
		if code, _ := get(t, fmt.Sprintf("%s/sessions/%d/results.json", ts.URL, id+1)); code != http.StatusConflict {
			t.Errorf("failed session %d results.json: %d, want 409", id+1, code)
		}
	}
}

// TestBadQuery: malformed or out-of-range session parameters are
// rejected with a 400, either up front or, for a well-formed shape the
// simulator cannot be built with (an arity that is not a power of two, a
// memory smaller than one bucket), by the failed session; the daemon keeps
// serving afterwards.
func TestBadQuery(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	for _, q := range []string{
		"entries=zero", "arity=-1", "sample=0", "frames=0", "arity=3", "frames=1",
		fmt.Sprintf("entries=%d", 1<<20), "arity=128", fmt.Sprintf("frames=%d", maxSessionFrames+1),
	} {
		resp, err := http.Post(ts.URL+"/sessions?"+q, "application/octet-stream", bytes.NewReader(traceBytes(t, 4, 2)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST ?%s: %d, want 400", q, resp.StatusCode)
		}
	}
	f := postSession(t, ts.URL, "arity=8", bytes.NewReader(traceBytes(t, 1000, 50)))
	if got := f.Config["arity"]; got != float64(8) {
		t.Errorf("follow-up session config arity = %v, want 8", got)
	}
}

// waitState spins until session id reaches the given state.
func waitState(t *testing.T, srv *Server, id int, state string) {
	t.Helper()
	for {
		srv.mu.Lock()
		var sess *Session
		if id >= 1 && id <= len(srv.sessions) {
			sess = srv.sessions[id-1]
		}
		srv.mu.Unlock()
		if sess != nil {
			sess.mu.Lock()
			got := sess.state
			sess.mu.Unlock()
			if got == state {
				return
			}
		}
	}
}
