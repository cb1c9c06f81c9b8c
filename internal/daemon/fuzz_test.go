package daemon

import (
	"bytes"
	"net/url"
	"testing"

	"mosaic/internal/memsim"
	"mosaic/internal/obs"
	"mosaic/internal/trace"
)

// FuzzSessionQuery checks that no query string panics a session: whatever
// sessionConfigFromQuery accepts, the session's simulator either refuses
// to build with an error or replays a small trace to completion.
func FuzzSessionQuery(f *testing.F) {
	for _, q := range []string{
		"",
		"frames=1",
		"frames=63&arity=2",
		"entries=64&arity=64&frames=4096",
		"entries=9&arity=3&sample=1&seed=7",
		"label=x&entries=65536&frames=65536",
	} {
		f.Add(q)
	}
	body := traceBytes(f, 256, 64)
	f.Fuzz(func(t *testing.T, query string) {
		q, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		cfg, err := sessionConfigFromQuery(q, 64)
		if err != nil {
			return
		}
		ob := obs.NewObserver(cfg.Sample)
		sim, err := memsim.New(cfg.simConfig(ob))
		if err != nil {
			return
		}
		r, err := trace.NewBatchReader(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		n, err := r.ReplayBatches(sim)
		if err != nil || n != 256 {
			t.Fatalf("replayed %d refs, %v; want 256, nil", n, err)
		}
		sim.FinalizeMetrics()
	})
}
