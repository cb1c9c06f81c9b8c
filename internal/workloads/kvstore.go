package workloads

import (
	"math"
	"math/rand"

	"mosaic/internal/rng"
	"mosaic/internal/trace"
)

// KVStoreConfig parameterizes the key-value store workload.
type KVStoreConfig struct {
	// TargetBytes sizes the store. Ignored if Keys is set.
	TargetBytes uint64
	// Keys is the number of stored keys.
	Keys int
	// Ops is the number of operations (default 2× Keys).
	Ops int
	// ReadFraction is the share of GETs (default 0.9, a read-heavy cache).
	ReadFraction float64
	// ZipfS is the Zipf skew parameter (default 0.99, YCSB's default);
	// set to 1 exactly for ZipfS semantics s>1 per math/rand, values in
	// (0,1] use a bounded-zipf sampler.
	ZipfS float64
	// ValueSize is the stored value size in bytes (default 256).
	ValueSize int
	// Seed drives keys and the request stream.
	Seed uint64
}

// KVStore is a Redis-like in-memory key-value store: a chained hash table
// of string keys to heap-allocated values, driven by a Zipfian GET/SET
// mix. The paper's introduction motivates mosaic with exactly this class
// of system — Redis gains 29% from huge pages on unfragmented memory and
// loses the gain under fragmentation; a KV store's pointer-chasing bucket
// walks and scattered values are classic TLB stress.
//
// KVStore is an extension beyond the paper's four workloads (Table 2),
// provided because the public API makes adding workloads cheap and the
// scenario is the paper's own motivating example.
type KVStore struct {
	cfg   KVStoreConfig
	arena *Arena

	// Hash-table layout in the simulated heap:
	//   buckets: one 8-byte head pointer per bucket
	//   entries: per key, a node {next, keyhash, valptr} of 24 bytes
	//   values:  ValueSize bytes each, allocated from the heap
	buckets *U64Array
	// entryVA[i], valueVA[i] are the simulated addresses of entry/value i.
	entryVA []uint64
	valueVA []uint64
	// chain structure (Go-side mirrors of the simulated pointers)
	bucketHead []int32 // index of first entry, -1 if empty
	entryNext  []int32
	entryHash  []uint64
	numBuckets int
}

const (
	kvEntrySize = 24
	kvNextOff   = 0
	kvHashOff   = 8
	kvValOff    = 16
)

// NewKVStore builds the store and loads it (silently — the benchmark
// phase, like YCSB, measures the request stream).
func NewKVStore(cfg KVStoreConfig) *KVStore {
	if cfg.Keys == 0 {
		if cfg.TargetBytes == 0 {
			cfg.TargetBytes = 32 << 20
		}
		valueSize := cfg.ValueSize
		if valueSize == 0 {
			valueSize = 256
		}
		// Per key: value + entry + ~1.33 bucket bytes.
		cfg.Keys = int(cfg.TargetBytes / uint64(valueSize+kvEntrySize+11))
	}
	if cfg.Keys < 16 {
		cfg.Keys = 16
	}
	if cfg.Ops == 0 {
		cfg.Ops = 2 * cfg.Keys
	}
	if cfg.ReadFraction == 0 {
		cfg.ReadFraction = 0.9
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 0.99
	}
	if cfg.ValueSize == 0 {
		cfg.ValueSize = 256
	}
	kv := &KVStore{cfg: cfg, arena: NewArena(0)}
	kv.load()
	return kv
}

// load builds the table: buckets sized for load factor ~0.75, entries and
// values interleaved the way an allocator would place them.
func (kv *KVStore) load() {
	kv.numBuckets = 1
	for kv.numBuckets*3 < kv.cfg.Keys*4 {
		kv.numBuckets *= 2
	}
	kv.buckets = NewU64Array(kv.arena, kv.numBuckets)
	kv.bucketHead = make([]int32, kv.numBuckets)
	for i := range kv.bucketHead {
		kv.bucketHead[i] = -1
	}
	kv.entryVA = make([]uint64, kv.cfg.Keys)
	kv.valueVA = make([]uint64, kv.cfg.Keys)
	kv.entryNext = make([]int32, kv.cfg.Keys)
	kv.entryHash = make([]uint64, kv.cfg.Keys)

	rnd := rng.Derive(kv.cfg.Seed, 0x6B767374) // "kvst"
	for i := 0; i < kv.cfg.Keys; i++ {
		kv.entryVA[i] = kv.arena.Alloc(kvEntrySize, 8)
		kv.valueVA[i] = kv.arena.Alloc(uint64(kv.cfg.ValueSize), 16)
		kv.entryHash[i] = rnd.Uint64()
		b := int(kv.entryHash[i] & uint64(kv.numBuckets-1))
		kv.entryNext[i] = kv.bucketHead[b]
		kv.bucketHead[b] = int32(i)
	}
}

// Name implements Workload.
func (kv *KVStore) Name() string { return "kvstore" }

// FootprintBytes implements Workload.
func (kv *KVStore) FootprintBytes() uint64 { return kv.arena.Size() }

// Keys is the number of stored keys.
func (kv *KVStore) Keys() int { return kv.cfg.Keys }

// Run implements Workload: a Zipf-distributed GET/SET stream.
func (kv *KVStore) Run(b *trace.Batcher) {
	rnd := rng.Derive(kv.cfg.Seed, 0x72657175657374) // "request"
	z := newZipf(rnd, kv.cfg.ZipfS, kv.cfg.Keys)
	for op := 0; op < kv.cfg.Ops && !b.Done(); op++ {
		key := z.next()
		if rnd.Float64() < kv.cfg.ReadFraction {
			kv.get(b, key)
		} else {
			kv.set(b, key)
		}
	}
}

// get walks the key's bucket chain and reads the value.
func (kv *KVStore) get(sink *trace.Batcher, key int) {
	h := kv.entryHash[key]
	b := int(h & uint64(kv.numBuckets-1))
	sink.Access(kv.buckets.Addr(b), false) // bucket head pointer
	for e := kv.bucketHead[b]; e >= 0; e = kv.entryNext[e] {
		sink.Access(kv.entryVA[e]+kvHashOff, false) // compare hashes
		if kv.entryHash[e] != h {
			sink.Access(kv.entryVA[e]+kvNextOff, false) // follow chain
			continue
		}
		sink.Access(kv.entryVA[e]+kvValOff, false) // value pointer
		// Read the value, one cache line at a time.
		for off := 0; off < kv.cfg.ValueSize; off += 64 {
			sink.Access(kv.valueVA[e]+uint64(off), false)
		}
		return
	}
	//lint:ignore nopanic every key the request stream draws was inserted at build time and is never removed
	panic("kvstore: resident key not found in its chain")
}

// set walks the chain like get, then overwrites the value.
func (kv *KVStore) set(sink *trace.Batcher, key int) {
	h := kv.entryHash[key]
	b := int(h & uint64(kv.numBuckets-1))
	sink.Access(kv.buckets.Addr(b), false)
	for e := kv.bucketHead[b]; e >= 0; e = kv.entryNext[e] {
		sink.Access(kv.entryVA[e]+kvHashOff, false)
		if kv.entryHash[e] != h {
			sink.Access(kv.entryVA[e]+kvNextOff, false)
			continue
		}
		sink.Access(kv.entryVA[e]+kvValOff, false)
		for off := 0; off < kv.cfg.ValueSize; off += 64 {
			sink.Access(kv.valueVA[e]+uint64(off), true)
		}
		return
	}
	//lint:ignore nopanic every key the request stream draws was inserted at build time and is never removed
	panic("kvstore: resident key not found in its chain")
}

// zipf samples ranks 0..n-1 with Zipfian skew s. math/rand's Zipf requires
// s > 1; YCSB-style skews live at s ≈ 0.99, so we implement the bounded
// generalized-zipf inversion directly.
type zipf struct {
	rng  *rand.Rand
	n    int
	s    float64
	zeta float64 // normalization: sum 1/k^s
	half float64 // zeta(2)
	eta  float64
}

func newZipf(rng *rand.Rand, s float64, n int) *zipf {
	z := &zipf{rng: rng, n: n, s: s}
	for k := 1; k <= n; k++ {
		z.zeta += 1 / math.Pow(float64(k), s)
		if k == 2 {
			z.half = z.zeta
		}
	}
	if n == 1 {
		z.half = z.zeta
	}
	z.eta = (1 - math.Pow(2/float64(n), 1-s)) / (1 - z.half/z.zeta)
	return z
}

// next returns a rank in [0, n), rank 0 most popular (Gray et al.'s
// quick-zipf used by YCSB).
func (z *zipf) next() int {
	u := z.rng.Float64()
	uz := u * z.zeta
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.s) {
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, 1/(1-z.s)))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}
