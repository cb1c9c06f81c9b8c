// Package iceberg implements Iceberg hashing (Bender et al.), the hash-table
// design underlying mosaic page allocation (§2.3 of the paper).
//
// An iceberg table simultaneously achieves the three properties mosaic
// needs, which classical tables provide only two of at a time:
//
//  1. Low associativity — each key has at most h = f + d·b candidate slots,
//     so "where did it land" fits in log2(h) bits.
//  2. Stability — once inserted, an item never moves until deleted (unlike
//     cuckoo hashing), so mapped pages never need to be copied.
//  3. High utilization — the table operates at load factors within a few
//     percent of 100% before any insertion fails, with high probability.
//
// The table is split into a frontyard of bins with f slots and a backyard
// of equally many bins with b slots. An insertion first tries the key's
// single frontyard bin; if that bin is full it goes to the emptiest of d
// hashed backyard bins (the power-of-d-choices). Because the frontyard
// absorbs all but an o(1/log log n) fraction of items, the backyard stays
// sparse and overflows only with negligible probability.
package iceberg

import (
	"errors"
	"fmt"
	"hash/maphash"

	"mosaic/internal/core"
	"mosaic/internal/obs"
)

// ErrConflict is returned by Put when every candidate slot for the key is
// occupied — the iceberg analogue of an associativity conflict. The table
// as a whole may be far from full when this happens; the load factor at the
// first conflict is the quantity δ measured in §4.2.
var ErrConflict = errors.New("iceberg: all candidate slots for key are occupied")

// KeyHash produces the bucket-selection hash of a key under placement
// function fn (0 = frontyard, 1..d = backyard choices).
type KeyHash[K comparable] func(key K, fn int) uint64

// Table is an iceberg hash table mapping K to V. It is not safe for
// concurrent use.
type Table[K comparable, V any] struct {
	geom       core.Geometry
	hash       KeyHash[K]
	numBuckets int

	// Flat slot arrays: bucket i's frontyard occupies
	// frontKeys[i*f : (i+1)*f]; its backyard backKeys[i*b : (i+1)*b].
	frontKeys []K
	frontVals []V
	frontUsed []bool
	backKeys  []K
	backVals  []V
	backUsed  []bool

	backLen  []int // per-bucket backyard occupancy, for power-of-d-choices
	frontLen []int // per-bucket frontyard occupancy

	len     int
	backTot int

	scratch []int

	// Optional instrumentation (Instrument); nil handles cost one compare.
	cFront    *obs.Counter
	cBack     *obs.Counter
	cConflict *obs.Counter
}

// New creates a table with at least capacity slots using the given geometry
// and a default hash family (maphash over the key, with fresh random seeds;
// placement therefore varies between processes, exactly like a freshly
// drawn hash function). Capacity is rounded up to a whole number of
// buckets. Use NewWithHash for seed-reproducible placement.
func New[K comparable, V any](capacity int, geom core.Geometry) *Table[K, V] {
	seeds := make([]maphash.Seed, geom.HashCount())
	for i := range seeds {
		seeds[i] = maphash.MakeSeed()
	}
	return NewWithHash[K, V](capacity, geom, func(key K, fn int) uint64 {
		return maphash.Comparable(seeds[fn], key)
	})
}

// NewWithHash creates a table with an explicit hash family. Use this when
// deterministic (seed-reproducible) placement is required.
func NewWithHash[K comparable, V any](capacity int, geom core.Geometry, hash KeyHash[K]) *Table[K, V] {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("iceberg: capacity %d must be positive", capacity))
	}
	if hash == nil {
		panic("iceberg: nil hash")
	}
	bs := geom.BucketSize()
	numBuckets := (capacity + bs - 1) / bs
	t := &Table[K, V]{
		geom:       geom,
		hash:       hash,
		numBuckets: numBuckets,
		frontKeys:  make([]K, numBuckets*geom.FrontyardSize),
		frontVals:  make([]V, numBuckets*geom.FrontyardSize),
		frontUsed:  make([]bool, numBuckets*geom.FrontyardSize),
		backKeys:   make([]K, numBuckets*geom.BackyardSize),
		backVals:   make([]V, numBuckets*geom.BackyardSize),
		backUsed:   make([]bool, numBuckets*geom.BackyardSize),
		backLen:    make([]int, numBuckets),
		frontLen:   make([]int, numBuckets),
		scratch:    make([]int, geom.HashCount()),
	}
	return t
}

// Len is the number of stored key/value pairs.
func (t *Table[K, V]) Len() int { return t.len }

// Cap is the total number of slots.
func (t *Table[K, V]) Cap() int { return t.numBuckets * t.geom.BucketSize() }

// NumBuckets is the number of (frontyard, backyard) bucket pairs.
func (t *Table[K, V]) NumBuckets() int { return t.numBuckets }

// LoadFactor is Len divided by Cap.
func (t *Table[K, V]) LoadFactor() float64 { return float64(t.len) / float64(t.Cap()) }

// BackyardLen is the number of items resident in the backyard. Iceberg's
// analysis requires this to stay o(n / log log n); tests assert it is a
// small fraction of the total.
func (t *Table[K, V]) BackyardLen() int { return t.backTot }

// Geometry returns the table's bucket geometry.
func (t *Table[K, V]) Geometry() core.Geometry { return t.geom }

// Instrument mirrors insertion outcomes into a metrics registry:
// iceberg.put.frontyard and iceberg.put.backyard count where new keys
// landed (the backyard share is the o(1/log log n) quantity iceberg's
// analysis bounds), iceberg.put.conflict counts failed insertions.
func (t *Table[K, V]) Instrument(r *obs.Registry) {
	t.cFront = r.Counter("iceberg.put.frontyard")
	t.cBack = r.Counter("iceberg.put.backyard")
	t.cConflict = r.Counter("iceberg.put.conflict")
}

// buckets fills scratch with the key's bucket choices: index 0 is the
// frontyard bucket, 1..d the backyard candidates. The uint64→int narrowing
// is guarded by the modulus — numBuckets is a positive int, so the result
// always fits.
func (t *Table[K, V]) buckets(key K) []int {
	sc := t.scratch // local header: the hash call cannot alias it, so the store stays check-free
	for fn := range sc {
		sc[fn] = int(t.hash(key, fn) % uint64(t.numBuckets))
	}
	return sc
}

// Bucket-scan loops below slice the flat slot arrays down to the one bin
// being probed before entering the loop. The three re-slices share the same
// length expression, so the compiler's prove pass eliminates every bounds
// check inside the scan itself.

// Get returns the value stored for key.
func (t *Table[K, V]) Get(key K) (V, bool) {
	bk := t.buckets(key)
	f := t.geom.FrontyardSize
	base := bk[0] * f
	used := t.frontUsed[base : base+f]
	keys := t.frontKeys[base : base+f]
	vals := t.frontVals[base : base+f]
	for s := range used {
		if used[s] && keys[s] == key {
			return vals[s], true
		}
	}
	b := t.geom.BackyardSize
	for _, bkj := range bk[1:] {
		base := bkj * b
		used := t.backUsed[base : base+b]
		keys := t.backKeys[base : base+b]
		vals := t.backVals[base : base+b]
		for s := range used {
			if used[s] && keys[s] == key {
				return vals[s], true
			}
		}
	}
	var zero V
	return zero, false
}

// Contains reports whether key is present.
func (t *Table[K, V]) Contains(key K) bool {
	_, ok := t.Get(key)
	return ok
}

// Put inserts or updates key. An update happens in place (stability: the
// item does not move). A new insertion follows the iceberg discipline:
// frontyard bin first; if full, the emptiest of the d backyard choices.
// Put returns ErrConflict if every candidate slot is occupied by other keys.
func (t *Table[K, V]) Put(key K, val V) error {
	_, err := t.PutSlot(key, val)
	return err
}

// PutSlot is Put, additionally reporting the CPFN-style slot index the key
// occupies (useful for callers that, like the mosaic TLB, must record which
// of the h candidates was chosen).
func (t *Table[K, V]) PutSlot(key K, val V) (core.CPFN, error) {
	bk := t.buckets(key)
	f := t.geom.FrontyardSize
	b := t.geom.BackyardSize

	// Update in place if present (front or back), preserving stability.
	fbase := bk[0] * f
	fused := t.frontUsed[fbase : fbase+f]
	fkeys := t.frontKeys[fbase : fbase+f]
	fvals := t.frontVals[fbase : fbase+f]
	firstFree := -1
	for s := range fused {
		if fused[s] {
			if fkeys[s] == key {
				fvals[s] = val
				return t.geom.FrontyardCPFN(s), nil
			}
		} else if firstFree < 0 {
			firstFree = s
		}
	}
	for j, bkj := range bk[1:] {
		base := bkj * b
		used := t.backUsed[base : base+b]
		keys := t.backKeys[base : base+b]
		vals := t.backVals[base : base+b]
		for s := range used {
			if used[s] && keys[s] == key {
				vals[s] = val
				return t.geom.BackyardCPFN(j, s), nil
			}
		}
	}

	// New key: frontyard first.
	if firstFree >= 0 {
		fkeys[firstFree], fvals[firstFree], fused[firstFree] = key, val, true
		t.frontLen[bk[0]]++
		t.len++
		if t.cFront != nil {
			t.cFront.Inc()
		}
		return t.geom.FrontyardCPFN(firstFree), nil
	}

	// Frontyard full: power-of-d-choices over the backyard bins.
	best, bestLen := -1, b+1
	for j, bkj := range bk[1:] {
		if l := t.backLen[bkj]; l < bestLen {
			best, bestLen = j, l
		}
	}
	if bestLen >= b {
		if t.cConflict != nil {
			t.cConflict.Inc()
		}
		var zero core.CPFN
		return zero, fmt.Errorf("%w (frontyard bucket %d and %d backyard choices full)",
			ErrConflict, bk[0], t.geom.Choices)
	}
	base := bk[1+best] * b
	used := t.backUsed[base : base+b]
	keys := t.backKeys[base : base+b]
	vals := t.backVals[base : base+b]
	blen := &t.backLen[bk[1+best]] // hoisted so the insert loop stays check-free
	for s := range used {
		if !used[s] {
			keys[s], vals[s], used[s] = key, val, true
			*blen++
			t.backTot++
			t.len++
			if t.cBack != nil {
				t.cBack.Inc()
			}
			return t.geom.BackyardCPFN(best, s), nil
		}
	}
	//lint:ignore nopanic backLen promised a free slot in the chosen bucket; not finding one means the occupancy counters are corrupt
	panic("iceberg: backyard occupancy count inconsistent with slot bitmap")
}

// Delete removes key, reporting whether it was present. Deletion frees the
// slot without disturbing any other item.
func (t *Table[K, V]) Delete(key K) bool {
	bk := t.buckets(key)
	f := t.geom.FrontyardSize
	fbase := bk[0] * f
	fused := t.frontUsed[fbase : fbase+f]
	fkeys := t.frontKeys[fbase : fbase+f]
	fvals := t.frontVals[fbase : fbase+f]
	flen := &t.frontLen[bk[0]] // hoisted so the scan loops stay check-free
	var zeroK K
	var zeroV V
	for s := range fused {
		if fused[s] && fkeys[s] == key {
			fkeys[s], fvals[s], fused[s] = zeroK, zeroV, false
			*flen--
			t.len--
			return true
		}
	}
	b := t.geom.BackyardSize
	for _, bkj := range bk[1:] {
		base := bkj * b
		used := t.backUsed[base : base+b]
		keys := t.backKeys[base : base+b]
		vals := t.backVals[base : base+b]
		blen := &t.backLen[bkj]
		for s := range used {
			if used[s] && keys[s] == key {
				keys[s], vals[s], used[s] = zeroK, zeroV, false
				*blen--
				t.backTot--
				t.len--
				return true
			}
		}
	}
	return false
}

// Slot returns the CPFN-style slot index at which key currently resides.
func (t *Table[K, V]) Slot(key K) (core.CPFN, bool) {
	bk := t.buckets(key)
	f := t.geom.FrontyardSize
	fbase := bk[0] * f
	fused := t.frontUsed[fbase : fbase+f]
	fkeys := t.frontKeys[fbase : fbase+f]
	for s := range fused {
		if fused[s] && fkeys[s] == key {
			return t.geom.FrontyardCPFN(s), true
		}
	}
	b := t.geom.BackyardSize
	for j, bkj := range bk[1:] {
		base := bkj * b
		used := t.backUsed[base : base+b]
		keys := t.backKeys[base : base+b]
		for s := range used {
			if used[s] && keys[s] == key {
				return t.geom.BackyardCPFN(j, s), true
			}
		}
	}
	return core.CPFNInvalid, false
}

// Range calls fn for every stored pair until fn returns false. Iteration
// order is unspecified.
func (t *Table[K, V]) Range(fn func(key K, val V) bool) {
	for i, used := range t.frontUsed {
		if used && !fn(t.frontKeys[i], t.frontVals[i]) {
			return
		}
	}
	for i, used := range t.backUsed {
		if used && !fn(t.backKeys[i], t.backVals[i]) {
			return
		}
	}
}
