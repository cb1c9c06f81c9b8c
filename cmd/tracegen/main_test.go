package main

import (
	"os"
	"path/filepath"
	"testing"

	"mosaic/internal/trace"
)

// TestReplayRejectsVAsAboveLimit: a trace may hold any VA below 2^62, but
// the simulator translates only VAs below 2^48; replay must refuse the
// rest instead of simulating them into another page's entries.
func TestReplayRejectsVAsAboveLimit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "high.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewBatchWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(trace.Batch{trace.MakeRef(0x10000000, false), trace.MakeRef(0x10000000|1<<52, true)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := replayTrace(path, 64, 4); err == nil {
		t.Fatal("replay accepted a VA above 2^48")
	}
}
