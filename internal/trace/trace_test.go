package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestBinaryRoundTrip round-trips a stream mixing sequential, backward and
// far-jump deltas through one v2 frame.
func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var want []Ref
	va := uint64(0x10000000)
	for i := 0; i < 10000; i++ {
		switch rng.Intn(3) {
		case 0:
			va += 8 // sequential
		case 1:
			va -= 16
		case 2:
			va = uint64(rng.Int63()) & (1<<57 - 1) // canonical VA range
		}
		want = append(want, MakeRef(va, rng.Intn(4) == 0))
	}
	got := readAllV2(t, writeV2(t, want, len(want)))
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

// TestReplayAll replays a whole v2 trace into a batch sink.
func TestReplayAll(t *testing.T) {
	var want []Ref
	for i := 0; i < 100; i++ {
		want = append(want, MakeRef(uint64(i)*4096, i%2 == 0))
	}
	r, err := NewBatchReader(bytes.NewReader(writeV2(t, want, 30)))
	if err != nil {
		t.Fatal(err)
	}
	var rec batchRecorder
	n, err := r.ReplayBatches(&rec)
	if err != nil || n != 100 {
		t.Fatalf("ReplayBatches = %d, %v", n, err)
	}
	for i, ref := range rec.refs() {
		if ref != want[i] {
			t.Fatalf("record %d = %#x, want %#x", i, ref, want[i])
		}
	}
}

func TestSequentialTraceIsCompact(t *testing.T) {
	// Delta encoding: a sequential scan must cost ~1 byte per record.
	var buf bytes.Buffer
	w, _ := NewBatchWriter(&buf)
	b := make(Batch, 10000)
	for i := range b {
		b[i] = MakeRef(0x10000000+uint64(i)*8, false)
	}
	_ = w.WriteBatch(b)
	_ = w.Flush()
	if perRec := float64(buf.Len()) / 10000; perRec > 1.5 {
		t.Errorf("sequential trace costs %.2f bytes/record", perRec)
	}
}

// TestBadHeader checks that anything but the v2 magic is rejected up
// front, including the retired v1 format's "MTR1".
func TestBadHeader(t *testing.T) {
	for name, data := range map[string]string{
		"bad magic":    "XXXX123",
		"v1 magic":     "MTR1\x02\x04",
		"short header": "MT",
	} {
		if _, err := NewBatchReader(bytes.NewReader([]byte(data))); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(d int64) bool { return unzigzag(zigzag(d)) == d }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVARoundTripProperty(t *testing.T) {
	f := func(vas []uint64) bool {
		for i := range vas {
			vas[i] &= 1<<57 - 1 // canonical VA range
		}
		refs := make([]Ref, len(vas))
		for i, va := range vas {
			refs[i] = MakeRef(va, va%3 == 0)
		}
		got := readAllV2(t, writeV2(t, refs, 7))
		if len(got) != len(vas) {
			return false
		}
		for i, va := range vas {
			if got[i].VA() != va || got[i].Write() != (va%3 == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWriterNonCanonicalAddress verifies the steady-state failure mode of
// a capture pipeline: a non-canonical VA delivered through ProcessBatch
// (which has no error return) must not panic; it sets a sticky error
// surfaced by both Err and Flush, and the writer drops all subsequent
// records.
func TestWriterNonCanonicalAddress(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sink BatchSink = w
	sink.ProcessBatch(Batch{MakeRef(0x1000, false)})
	sink.ProcessBatch(Batch{Ref(uint64(1) << 63)}) // VA 2^62: non-canonical
	sink.ProcessBatch(Batch{MakeRef(0x2000, false)})
	if w.Count() != 1 {
		t.Errorf("Count = %d, want 1 (records after the error must be dropped)", w.Count())
	}
	if err := w.Err(); !errors.Is(err, ErrNonCanonical) {
		t.Errorf("Err() = %v, want ErrNonCanonical", err)
	}
	if err := w.Flush(); !errors.Is(err, ErrNonCanonical) {
		t.Errorf("Flush() = %v, want ErrNonCanonical", err)
	}
}

// TestWriterCanonicalBoundary pins the boundary: 2^62-1 encodes, 2^62 fails.
func TestWriterCanonicalBoundary(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(Batch{MakeRef(1<<62-1, false)}); err != nil {
		t.Fatalf("2^62-1 must be canonical, got %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := readAllV2(t, buf.Bytes())
	if len(got) != 1 || got[0].VA() != 1<<62-1 {
		t.Fatalf("round trip of boundary VA: %#x", got)
	}
	if err := w.WriteBatch(Batch{Ref(uint64(1) << 63)}); !errors.Is(err, ErrNonCanonical) {
		t.Fatalf("2^62 must be non-canonical, got %v", err)
	}
}
