package trace

import (
	"testing"
)

// batchRecorder copies every delivered batch (the Batcher reuses its buffer,
// so retaining the slice would alias later batches).
type batchRecorder struct {
	batches [][]Ref
}

func (r *batchRecorder) ProcessBatch(b Batch) {
	cp := make([]Ref, len(b))
	copy(cp, b)
	r.batches = append(r.batches, cp)
}

func (r *batchRecorder) refs() []Ref {
	var out []Ref
	for _, b := range r.batches {
		out = append(out, b...)
	}
	return out
}

// emitStream drives n references into b, stopping early once the budget is
// spent, the way a generator does, and returns how many it emitted.
func emitStream(b *Batcher, n int) int {
	for i := 0; i < n; i++ {
		if b.Done() {
			return i
		}
		b.Access(uint64(i)<<12, i%3 == 0)
	}
	return n
}

// checkPrefix requires the recorded stream to be exactly the first n
// references emitStream produces.
func checkPrefix(t *testing.T, rec *batchRecorder, n int) {
	t.Helper()
	refs := rec.refs()
	if len(refs) != n {
		t.Fatalf("delivered %d refs, want %d", len(refs), n)
	}
	for i, r := range refs {
		if r.VA() != uint64(i)<<12 || r.Write() != (i%3 == 0) {
			t.Fatalf("ref %d = (%#x, %v), want (%#x, %v)",
				i, r.VA(), r.Write(), uint64(i)<<12, i%3 == 0)
		}
	}
}

// TestBatcherTailFlushedExactlyOnce is the tail-handling contract: a stream
// whose length is not a multiple of the batch size delivers its partial tail
// exactly once, and a second Flush delivers nothing more.
func TestBatcherTailFlushedExactlyOnce(t *testing.T) {
	const size = DefaultBatchSize
	for _, n := range []int{1, size - 1, size, size + 1, 3*size - 5, 3 * size} {
		var rec batchRecorder
		b := NewBatcher(&rec, 0)
		emitStream(b, n)
		b.Flush()
		b.Flush() // must be a no-op: the tail was already delivered

		checkPrefix(t, &rec, n)
		// Every batch but the last must be exactly full; the last carries
		// the remainder (or a full batch when n divides evenly).
		for bi, batch := range rec.batches {
			want := size
			if bi == len(rec.batches)-1 {
				if tail := n % size; tail != 0 {
					want = tail
				}
			}
			if len(batch) != want {
				t.Fatalf("n=%d: batch %d has %d refs, want %d", n, bi, len(batch), want)
			}
		}
		if b.Delivered() != uint64(n) || b.Done() {
			t.Fatalf("n=%d: Delivered=%d Done=%v, want %d and false", n, b.Delivered(), b.Done(), n)
		}
	}
}

// TestBatcherFlushOnEmptyDeliversNothing covers the two empty cases: a
// Batcher that never saw a reference, and one flushed right at a full-batch
// boundary. Neither may deliver an empty batch.
func TestBatcherFlushOnEmptyDeliversNothing(t *testing.T) {
	var rec batchRecorder
	b := NewBatcher(&rec, 0)
	b.Flush()
	if len(rec.batches) != 0 {
		t.Fatalf("Flush on fresh Batcher delivered %d batches, want 0", len(rec.batches))
	}
	emitStream(b, DefaultBatchSize)
	if len(rec.batches) != 1 {
		t.Fatalf("full buffer delivered %d batches, want 1", len(rec.batches))
	}
	b.Flush()
	if len(rec.batches) != 1 {
		t.Fatalf("Flush at batch boundary delivered %d batches, want 1", len(rec.batches))
	}
}

// TestBatcherBudget pins the run budget: a Batcher capped at max delivers
// exactly the first max references, Done turns true on the very reference
// that spends the budget (so a producer checking Done stops there), and
// nothing — further Access calls or a Flush — delivers past it.
func TestBatcherBudget(t *testing.T) {
	const size = DefaultBatchSize
	const stream = 5 * size
	for _, max := range []int{1, size - 1, size, size + 1, 3 * size, 0, stream + 7} {
		var rec batchRecorder
		b := NewBatcher(&rec, uint64(max))
		want := max
		if max == 0 || max > stream {
			want = stream
		}
		for i := 0; i < stream; i++ {
			if done := b.Done(); done != (max != 0 && i >= max) {
				t.Fatalf("max=%d: Done()=%v after %d refs emitted (%d delivered)", max, done, i, b.Delivered())
			}
			if b.Done() {
				break
			}
			b.Access(uint64(i)<<12, i%3 == 0)
			if max != 0 && i+1 == max && b.Delivered() != uint64(max) {
				t.Fatalf("max=%d: the budget's last ref left %d delivered", max, b.Delivered())
			}
		}
		// Emitting past a spent budget — enough to cycle the buffer more
		// than once — is harmless: the refs are dropped, and the Flush
		// after Done delivers none of them.
		if b.Done() {
			for i := 0; i < 2*size+3; i++ {
				b.Access(0xdead000, true)
			}
		}
		b.Flush()
		checkPrefix(t, &rec, want)
		if b.Delivered() != uint64(want) {
			t.Fatalf("max=%d: Delivered()=%d, want %d", max, b.Delivered(), want)
		}
		if b.Done() != (max != 0 && max <= stream) {
			t.Fatalf("max=%d: Done()=%v at end of stream", max, b.Done())
		}
		for _, batch := range rec.batches {
			if len(batch) == 0 || len(batch) > size {
				t.Fatalf("max=%d: delivered a batch of %d refs", max, len(batch))
			}
		}
	}
}
