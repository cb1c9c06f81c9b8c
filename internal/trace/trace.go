// Package trace defines the memory-reference stream flowing from workloads
// into the memory-system simulator: packed references delivered in whole
// batches (Batcher on the producer side, BatchSink on the consumer side),
// plus the compact binary encoding for storing traces on disk (format v2,
// tracev2.go).
package trace

import "errors"

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace")

// ErrNonCanonical reports a stream outside the canonical encoding: an
// access whose virtual address exceeds the canonical 62-bit range the
// record format can represent, or a frame whose bytes do not decode to
// exactly its declared shape — truncated header or payload, varints that
// under- or over-fill the declared length, or a decoded VA beyond the
// canonical range.
var ErrNonCanonical = errors.New("trace: stream outside the canonical encoding")

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
