// Package trace defines the memory-reference stream flowing from workloads
// into the memory-system simulator: packed references delivered in whole
// batches (Batcher on the producer side, BatchSink on the consumer side),
// plus the compact binary encodings for storing traces on disk.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Access is one data memory reference.
type Access struct {
	// VA is the virtual address.
	VA uint64
	// Write reports whether the reference is a store.
	Write bool
}

// Binary format v1: magic, then per record a varint holding
// (zigzag(VA delta) << 1 | write). Deltas keep sequential patterns tiny.
// v1 is read-only: captures are written in the framed v2 format
// (tracev2.go), and ConvertV1 transcodes old v1 files.
var magic = [4]byte{'M', 'T', 'R', '1'}

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace")

// ErrNonCanonical reports a stream outside the canonical encoding: an
// access whose virtual address exceeds the canonical 62-bit range the
// record format can represent, or (format v2) a frame whose bytes do not
// decode to exactly its declared shape — truncated header or payload,
// varints that under- or over-fill the declared length, or a decoded VA
// beyond the canonical range.
var ErrNonCanonical = errors.New("trace: stream outside the canonical encoding")

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Reader decodes a v1 binary trace.
type Reader struct {
	r      *bufio.Reader
	prevVA uint64
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrBadTrace, err)
	}
	if hdr != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, hdr[:])
	}
	return &Reader{r: br}, nil
}

// Next decodes one record; it returns io.EOF at a clean end of stream.
func (r *Reader) Next() (Access, error) {
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Access{}, io.EOF
		}
		return Access{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	write := v&1 != 0
	r.prevVA += uint64(unzigzag(v >> 1))
	return Access{VA: r.prevVA, Write: write}, nil
}
