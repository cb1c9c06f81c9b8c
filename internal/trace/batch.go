package trace

// Batched delivery: a Batch packs many references into one contiguous []Ref
// so the stream crosses interface boundaries once per few thousand
// references, the consumer's inner loop runs over cache-resident words, and
// decoders can reuse one buffer for the life of a replay.

// Ref packs one reference into a single word: VA<<1 | writeBit. The VA must
// be canonical (below 2^62, as the binary trace formats already require), so
// the shifted form always fits.
type Ref uint64

// MakeRef packs a reference.
func MakeRef(va uint64, write bool) Ref {
	r := Ref(va << 1)
	if write {
		r |= 1
	}
	return r
}

// VA is the reference's virtual address.
func (r Ref) VA() uint64 { return uint64(r) >> 1 }

// Write reports whether the reference is a store.
func (r Ref) Write() bool { return r&1 != 0 }

// Batch is a run of packed references in stream order.
type Batch []Ref

// DefaultBatchSize is the batch granularity of a Batcher and of trace
// replay: 4096 refs = 32 KiB of packed words, small enough to stay
// L1/L2-resident while amortizing per-batch dispatch to nothing.
const DefaultBatchSize = 4096

// BatchSink consumes the reference stream in whole batches. The references
// in a batch are in stream order, and a consumer's results must not depend
// on where the batch boundaries fall: an implementation may amortize
// dispatch and per-reference branching, but not reorder or drop.
type BatchSink interface {
	ProcessBatch(b Batch)
}

// Batcher is the producer side of the reference stream: generators call
// Access once per reference, and the Batcher packs references into a
// DefaultBatchSize buffer and hands full batches to the sink. It also
// carries the run's reference budget: it delivers exactly the first max
// references, after which Done reports true and further Access calls are
// dropped, so a capped producer stops by returning rather than by being
// aborted. Call Flush after the stream ends to deliver the partial tail.
type Batcher struct {
	next BatchSink
	buf  Batch
	i    int
	n    uint64 // references delivered
	max  uint64 // budget; ^0 when unlimited
}

// NewBatcher builds a Batcher delivering to next at most max references
// (0 means unlimited).
func NewBatcher(next BatchSink, max uint64) *Batcher {
	if max == 0 {
		max = ^uint64(0)
	}
	return &Batcher{next: next, buf: make(Batch, min(max, DefaultBatchSize)), max: max}
}

// Access emits one reference. The body is MakeRef flattened by hand and
// both batch delivery and the budget live out of line in deliver: what
// remains — pack, store, increment, one compare — sits under the compiler's
// inlining budget, so producers calling Access on the concrete *Batcher get
// the whole fast path inlined into their innermost loop.
func (b *Batcher) Access(va uint64, write bool) {
	r := Ref(va << 1)
	if write {
		r |= 1
	}
	if b.i == len(b.buf)-1 {
		b.deliver(r)
		return
	}
	b.buf[b.i] = r
	b.i++
}

// deliver stores the buffer's final reference and hands the full buffer
// downstream. It must stay out of line: inlined into Access, its dynamic
// ProcessBatch call would push Access past the inlining budget, putting a
// call back into every producer's innermost loop.
//
//go:noinline
func (b *Batcher) deliver(r Ref) {
	b.buf[b.i] = r
	b.emit(b.i + 1)
}

// emit delivers the first k buffered references unless the budget is spent.
// The buffer never holds more than the remaining budget — it is shortened
// once fewer than a full batch remain — so the budget's final reference
// lands exactly on a delivery and Done turns true right after it. Past the
// budget the buffer keeps cycling and its contents are dropped.
func (b *Batcher) emit(k int) {
	b.i = 0
	if b.Done() {
		return
	}
	b.next.ProcessBatch(b.buf[:k])
	b.n += uint64(k)
	if left := b.max - b.n; left > 0 && left < uint64(len(b.buf)) {
		b.buf = b.buf[:left]
	}
}

// Flush delivers the buffered tail, if any. Delivery resets the fill index,
// so a second Flush (or one right after a full-batch boundary, or once the
// budget is spent) delivers nothing.
func (b *Batcher) Flush() {
	if b.i > 0 {
		b.emit(b.i)
	}
}

// Done reports whether the budget is spent: every reference from here on is
// dropped, so a producer may return.
func (b *Batcher) Done() bool { return b.n == b.max }

// Delivered is the number of references handed to the sink so far.
func (b *Batcher) Delivered() uint64 { return b.n }
