package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

// encodeV1 is a test-only v1 encoder: the magic followed by one varint of
// (zigzag(VA delta) << 1 | write) per record. Captures are written as v2;
// v1 bytes exist only to exercise the read-only v1 path.
func encodeV1(accesses []Access) []byte {
	out := append([]byte(nil), magic[:]...)
	prevVA := uint64(0)
	for _, a := range accesses {
		v := zigzag(int64(a.VA-prevVA)) << 1
		prevVA = a.VA
		if a.Write {
			v |= 1
		}
		out = binary.AppendUvarint(out, v)
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var want []Access
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
		a := Access{VA: va, Write: rng.Intn(4) == 0}
		want = append(want, a)
	}
	r, err := NewReader(bytes.NewReader(encodeV1(want)))
	if err != nil {
		t.Fatal(err)
	}
	for i, wa := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != wa {
			t.Fatalf("record %d = %+v, want %+v", i, got, wa)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestReplayAll replays a whole v1 trace into a batch sink.
func TestReplayAll(t *testing.T) {
	var want []Access
	for i := 0; i < 100; i++ {
		want = append(want, Access{VA: uint64(i) * 4096, Write: i%2 == 0})
	}
	r, _ := NewReader(bytes.NewReader(encodeV1(want)))
	var rec batchRecorder
	n, err := r.ReplayBatches(&rec)
	if err != nil || n != 100 {
		t.Fatalf("ReplayBatches = %d, %v", n, err)
	}
	for i, a := range rec.accesses() {
		if a != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, a, want[i])
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

func TestBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX123"))); !errors.Is(err, ErrBadTrace) {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("MT"))); !errors.Is(err, ErrBadTrace) {
		t.Errorf("short header: %v", err)
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
		accesses := make([]Access, len(vas))
		for i, va := range vas {
			accesses[i] = Access{VA: va, Write: va%3 == 0}
		}
		r, err := NewReader(bytes.NewReader(encodeV1(accesses)))
		if err != nil {
			return false
		}
		for _, va := range vas {
			a, err := r.Next()
			if err != nil || a.VA != va || a.Write != (va%3 == 0) {
				return false
			}
		}
		_, err = r.Next()
		return errors.Is(err, io.EOF)
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
	if len(got) != 1 || got[0].VA != 1<<62-1 {
		t.Fatalf("round trip of boundary VA: %+v", got)
	}
	if err := w.WriteBatch(Batch{Ref(uint64(1) << 63)}); !errors.Is(err, ErrNonCanonical) {
		t.Fatalf("2^62 must be non-canonical, got %v", err)
	}
}
