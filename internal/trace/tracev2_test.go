package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// mkRefs builds a deterministic stream mixing sequential, strided, and
// random far-jump patterns, the shapes the delta encoding must cover.
func mkRefs(n int, seed int64) []Ref {
	r := rand.New(rand.NewSource(seed))
	out := make([]Ref, n)
	va := uint64(0x1000_0000)
	for i := range out {
		switch r.Intn(4) {
		case 0:
			va += 64
		case 1:
			va += 4096
		case 2:
			va = r.Uint64() % (1 << 62)
		case 3:
			if va >= 128 {
				va -= 128
			}
		}
		out[i] = MakeRef(va, r.Intn(3) == 0)
	}
	return out
}

func writeV2(t *testing.T, refs []Ref, batchSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	for _, ref := range refs {
		b = append(b, ref)
		if len(b) == batchSize {
			if err := w.WriteBatch(b); err != nil {
				t.Fatal(err)
			}
			b = b[:0]
		}
	}
	if err := w.WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readAllV2(t *testing.T, data []byte) []Ref {
	t.Helper()
	r, err := NewBatchReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var rec batchRecorder
	if _, err := r.ReplayBatches(&rec); err != nil {
		t.Fatal(err)
	}
	return rec.refs()
}

func TestBatchRefPacking(t *testing.T) {
	for _, tc := range []struct {
		va    uint64
		write bool
	}{{0, false}, {0, true}, {0xdeadbeef000, false}, {1<<62 - 1, true}} {
		r := MakeRef(tc.va, tc.write)
		if r.VA() != tc.va || r.Write() != tc.write {
			t.Errorf("MakeRef(%#x, %v) round-tripped to (%#x, %v)", tc.va, tc.write, r.VA(), r.Write())
		}
	}
}

func TestBatchWriterReaderRoundTrip(t *testing.T) {
	for _, batchSize := range []int{1, 7, 256, 4096} {
		refs := mkRefs(10_000, int64(batchSize))
		got := readAllV2(t, writeV2(t, refs, batchSize))
		if len(got) != len(refs) {
			t.Fatalf("batch %d: decoded %d records, want %d", batchSize, len(got), len(refs))
		}
		for i := range got {
			if got[i] != refs[i] {
				t.Fatalf("batch %d: record %d = %#x, want %#x", batchSize, i, got[i], refs[i])
			}
		}
	}
}

func TestBatchWriterSplitsOversizedBatches(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := make(Batch, MaxFrameRecords+10)
	for i := range b {
		b[i] = MakeRef(uint64(i)*64, false)
	}
	if err := w.WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Frames() != 2 {
		t.Fatalf("Frames() = %d, want 2", w.Frames())
	}
	got := readAllV2(t, buf.Bytes())
	if len(got) != len(b) {
		t.Fatalf("decoded %d records, want %d", len(got), len(b))
	}
	for i, ref := range got {
		if ref.VA() != uint64(i)*64 {
			t.Fatalf("record %d VA = %#x, want %#x", i, ref.VA(), uint64(i)*64)
		}
	}
}

func TestBatchWriterNonCanonicalVA(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_ = w.WriteBatch(Batch{MakeRef(64, false), Ref(uint64(1) << 63)})
	if err := w.Err(); !errors.Is(err, ErrNonCanonical) {
		t.Errorf("Err() = %v, want ErrNonCanonical", err)
	}
	if err := w.Flush(); !errors.Is(err, ErrNonCanonical) {
		t.Errorf("Flush() = %v, want ErrNonCanonical", err)
	}
	// Sticky: later, valid batches are dropped.
	_ = w.WriteBatch(Batch{MakeRef(128, false)})
	if w.Count() != 1 {
		t.Errorf("Count() = %d after sticky error, want 1", w.Count())
	}
}

func TestBatchReaderTruncation(t *testing.T) {
	refs := mkRefs(5_000, 42)
	data := writeV2(t, refs, 512)
	// Every proper prefix must either decode cleanly to a record prefix
	// (cuts at frame boundaries) or fail with ErrNonCanonical — never
	// panic, never misdecode.
	for cut := 4; cut < len(data); cut += 97 {
		r, err := NewBatchReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header rejected: %v", cut, err)
		}
		var n uint64
		buf := make(Batch, 0, 512)
		for {
			b, err := r.ReadBatch(buf)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrNonCanonical) {
					t.Fatalf("cut %d: error %v, want ErrNonCanonical", cut, err)
				}
				break
			}
			for i, ref := range b {
				if ref != refs[n+uint64(i)] {
					t.Fatalf("cut %d: record %d diverged", cut, n+uint64(i))
				}
			}
			n += uint64(len(b))
			buf = b
		}
	}
	// Cutting inside the magic is a bad trace, not a panic.
	if _, err := NewBatchReader(bytes.NewReader(data[:2])); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("short magic: err = %v, want ErrBadTrace", err)
	}
}

func TestBatchReaderRejectsLyingHeaders(t *testing.T) {
	for name, data := range map[string][]byte{
		"count zero":        append(append([]byte{}, magicV2[:]...), 0x00, 0x01, 0x00),
		"count over max":    append(append([]byte{}, magicV2[:]...), 0xff, 0xff, 0xff, 0xff, 0x0f, 0x01, 0x00),
		"payload too short": append(append([]byte{}, magicV2[:]...), 0x02, 0x01, 0x00),
		"payload too long":  append(append([]byte{}, magicV2[:]...), 0x01, 0x20),
		"leftover bytes":    append(append([]byte{}, magicV2[:]...), 0x01, 0x02, 0x00, 0x00),
	} {
		r, err := NewBatchReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: header rejected early: %v", name, err)
		}
		if _, err := r.ReadBatch(nil); !errors.Is(err, ErrNonCanonical) {
			t.Errorf("%s: ReadBatch err = %v, want ErrNonCanonical", name, err)
		}
	}
}

// TestReplayBatchesDeliversIntactFramesOnError pins the error path on a
// corrupt v2 stream: every frame decoded before the corrupt one is
// delivered and counted, so a truncated capture still replays its intact
// prefix.
func TestReplayBatchesDeliversIntactFramesOnError(t *testing.T) {
	refs := mkRefs(1_000, 5)
	// A frame header declaring one record and no payload bytes is corrupt.
	data := append(writeV2(t, refs, 100), 0x01, 0x00)

	r, err := NewBatchReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var rec batchRecorder
	n, err := r.ReplayBatches(&rec)
	if !errors.Is(err, ErrNonCanonical) {
		t.Fatalf("ReplayBatches err = %v, want ErrNonCanonical", err)
	}
	if n != uint64(len(refs)) {
		t.Fatalf("ReplayBatches delivered %d records before the error, want %d", n, len(refs))
	}
	got := rec.refs()
	if len(got) != len(refs) {
		t.Fatalf("sink saw %d records, want %d", len(got), len(refs))
	}
	for i := range got {
		if got[i] != refs[i] {
			t.Fatalf("record %d = %#x, want %#x", i, got[i], refs[i])
		}
	}
}
