// Package alloc implements physical-frame allocation for mosaic pages
// (§2.3, §3.2 of the paper) plus the unconstrained baseline allocator.
//
// Physical memory is treated as an Iceberg hash table: frames are grouped
// into buckets of geometry.BucketSize() contiguous frames, the first
// FrontyardSize of which form the bucket's frontyard and the remainder its
// backyard. A virtual page (ASID, VPN) hashes to one frontyard bucket and
// Choices backyard buckets; allocation places it in the frontyard if there
// is room and otherwise in the emptiest backyard choice.
//
// The allocator is ghost-aware (§2.4): pages whose last access predates the
// caller-supplied horizon are treated as free for placement purposes and
// are reclaimed (really evicted) only when their frame is actually needed.
// That reclamation is reported back to the caller so the OS layer can
// record the swap-out.
package alloc

import (
	"errors"
	"fmt"
	"math/bits"

	"mosaic/internal/core"
)

// ErrConflict is returned by Memory.Place when every one of the page's h
// candidate frames holds a live (non-ghost) page: an associativity
// conflict. The caller must evict a victim (see Candidates/Evict) and retry.
var ErrConflict = errors.New("alloc: associativity conflict — all candidate frames hold live pages")

// ErrNoMemory is returned by the unconstrained allocator when no frame is
// free; the caller must reclaim and retry.
var ErrNoMemory = errors.New("alloc: out of physical frames")

// Owner identifies the virtual page occupying a frame.
type Owner struct {
	ASID core.ASID
	VPN  core.VPN
}

// frame is the per-physical-frame bookkeeping record.
type frame struct {
	owner      Owner
	lastAccess uint64
	used       bool
	dirty      bool
}

// Placement describes a completed allocation.
type Placement struct {
	// PFN is the allocated physical frame.
	PFN core.PFN
	// CPFN is the compressed encoding of which candidate slot was chosen.
	CPFN core.CPFN
	// Evicted, if non-nil, is the ghost page whose frame was reclaimed to
	// satisfy this allocation. The OS layer must unmap it and charge a
	// swap-out.
	Evicted *Owner
}

// Candidate describes one of a page's h candidate frames, for victim
// selection on a conflict.
type Candidate struct {
	PFN        core.PFN
	CPFN       core.CPFN
	Used       bool
	Owner      Owner
	LastAccess uint64
}

// MaxBucketSize is the most frames a bucket can hold: a bucket's occupancy
// is one 64-bit word.
const MaxBucketSize = 64

// Memory is a mosaic (iceberg-constrained) physical memory. It is not safe
// for concurrent use.
type Memory struct {
	geom       core.Geometry
	hash       core.PlacementHash
	numBuckets uint64
	numFrames  int
	frames     []frame
	// occupied holds one bit per frame within each bucket; bit s of
	// occupied[i] covers frame i*BucketSize+s. BucketSize must be ≤ 64.
	occupied []uint64
	used     int

	scratch []uint64
}

// NewMemory creates a mosaic physical memory of numFrames frames (rounded
// down to whole buckets) using the given geometry and placement hash.
func NewMemory(numFrames int, geom core.Geometry, hash core.PlacementHash) *Memory {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	if geom.BucketSize() > MaxBucketSize {
		panic(fmt.Sprintf("alloc: bucket size %d exceeds the %d-frame occupancy word", geom.BucketSize(), MaxBucketSize))
	}
	if hash == nil {
		panic("alloc: nil placement hash")
	}
	bs := geom.BucketSize()
	numBuckets := numFrames / bs
	if numBuckets == 0 {
		panic(fmt.Sprintf("alloc: %d frames is less than one bucket (%d)", numFrames, bs))
	}
	return &Memory{
		geom:       geom,
		hash:       hash,
		numBuckets: uint64(numBuckets),
		numFrames:  numBuckets * bs,
		frames:     make([]frame, numBuckets*bs),
		occupied:   make([]uint64, numBuckets),
		scratch:    make([]uint64, geom.HashCount()),
	}
}

// NumFrames is the number of physical frames (a whole number of buckets).
func (m *Memory) NumFrames() int { return m.numFrames }

// NumBuckets is the number of iceberg buckets.
func (m *Memory) NumBuckets() uint64 { return m.numBuckets }

// Geometry returns the bucket geometry.
func (m *Memory) Geometry() core.Geometry { return m.geom }

// Used is the number of resident pages — live and ghost alike, since ghosts
// still occupy their frames until reclaimed.
func (m *Memory) Used() int { return m.used }

// Utilization is Used divided by NumFrames.
func (m *Memory) Utilization() float64 { return float64(m.used) / float64(m.numFrames) }

// LiveCount counts resident pages whose last access is at or after horizon
// (i.e. non-ghost pages). It scans all frames; use it at sample points, not
// per allocation.
func (m *Memory) LiveCount(horizon uint64) int {
	n := 0
	for i := range m.frames {
		if m.frames[i].used && m.frames[i].lastAccess >= horizon {
			n++
		}
	}
	return n
}

func (m *Memory) buckets(asid core.ASID, vpn core.VPN) []uint64 {
	return m.geom.Buckets(m.hash, asid, vpn, m.numBuckets, m.scratch)
}

// frameIndex converts a (bucket, slot) coordinate into a frames index.
// Buckets arrive already reduced modulo numBuckets by Geometry.Buckets; the
// reduction here restates that bound so the narrowing stays in range even
// for a corrupted bucket value.
func (m *Memory) frameIndex(bucket uint64, slot int) int {
	return int(bucket%m.numBuckets)*m.geom.BucketSize() + slot
}

// Place allocates a frame for (asid, vpn) following the iceberg discipline,
// treating pages older than horizon as ghosts (reclaimable). now becomes
// the new page's initial access time. On success the page is resident at
// Placement.PFN. Place never evicts a live page; on ErrConflict the caller
// picks a victim from Candidates, Evicts it, and retries.
func (m *Memory) Place(asid core.ASID, vpn core.VPN, now, horizon uint64) (Placement, error) {
	bk := m.buckets(asid, vpn)
	f := m.geom.FrontyardSize
	b := m.geom.BackyardSize
	bs := m.geom.BucketSize()

	// Frontyard: a free slot wins outright.
	fmask := uint64(1)<<uint(f) - 1
	if freeBits := ^m.occupied[bk[0]] & fmask; freeBits != 0 {
		slot := bits.TrailingZeros64(freeBits)
		return m.install(bk, asid, vpn, now, m.geom.FrontyardCPFN(slot), -1, slot, nil), nil
	}
	// Frontyard full: reclaim its oldest ghost if it has one.
	if slot, ok := m.oldestGhost(bk[0], 0, f, horizon); ok {
		evicted := m.reclaim(m.frameIndex(bk[0], slot))
		return m.install(bk, asid, vpn, now, m.geom.FrontyardCPFN(slot), -1, slot, &evicted), nil
	}

	// Backyard: power-of-d-choices counting only live pages (§2.4: "ghost
	// pages do not count towards a bucket's occupancy").
	bestChoice, bestLive := -1, b+1
	for j := 0; j < m.geom.Choices; j++ {
		live := 0
		base := m.frameIndex(bk[1+j], f)
		occ := m.occupied[bk[1+j]] >> uint(f)
		for s := 0; s < b; s++ {
			if occ&(1<<uint(s)) != 0 && m.frames[base+s].lastAccess >= horizon {
				live++
			}
		}
		if live < bestLive {
			bestChoice, bestLive = j, live
		}
	}
	if bestLive >= b {
		return Placement{}, ErrConflict
	}
	bucket := bk[1+bestChoice]
	// Prefer a genuinely free slot in the chosen bucket; otherwise reclaim
	// its oldest ghost.
	bmask := (uint64(1)<<uint(b) - 1) << uint(f)
	if freeBits := ^m.occupied[bucket] & bmask; freeBits != 0 {
		slot := bits.TrailingZeros64(freeBits) - f
		return m.install(bk, asid, vpn, now, m.geom.BackyardCPFN(bestChoice, slot), bestChoice, f+slot, nil), nil
	}
	slot, ok := m.oldestGhost(bucket, f, bs, horizon)
	if !ok {
		//lint:ignore nopanic bestLive < b proved a dead slot exists in this bucket; not finding one means the occupancy bitmap is corrupt
		panic("alloc: backyard live count promised a reclaimable slot but none found")
	}
	evicted := m.reclaim(m.frameIndex(bucket, slot))
	return m.install(bk, asid, vpn, now, m.geom.BackyardCPFN(bestChoice, slot-f), bestChoice, slot, &evicted), nil
}

// oldestGhost finds the ghost with the smallest lastAccess among slots
// [lo, hi) of bucket, if any.
func (m *Memory) oldestGhost(bucket uint64, lo, hi int, horizon uint64) (int, bool) {
	best, bestTime, found := -1, uint64(0), false
	base := m.frameIndex(bucket, 0)
	for s := lo; s < hi; s++ {
		fr := &m.frames[base+s]
		if fr.used && fr.lastAccess < horizon {
			if !found || fr.lastAccess < bestTime {
				best, bestTime, found = s, fr.lastAccess, true
			}
		}
	}
	return best, found
}

// reclaim frees an occupied frame and returns its former owner.
func (m *Memory) reclaim(idx int) Owner {
	fr := &m.frames[idx]
	if !fr.used {
		//lint:ignore nopanic reclaim indexes come from the occupancy bitmap, which recorded this frame as live
		panic("alloc: reclaim of free frame")
	}
	owner := fr.owner
	m.clear(idx)
	return owner
}

func (m *Memory) clear(idx int) {
	bs := m.geom.BucketSize()
	m.frames[idx] = frame{}
	m.occupied[idx/bs] &^= 1 << uint(idx%bs)
	m.used--
}

// install marks the slot used and builds the Placement. bucketChoice is -1
// for the frontyard; slot is the within-bucket slot index.
func (m *Memory) install(bk []uint64, asid core.ASID, vpn core.VPN, now uint64, cpfn core.CPFN, bucketChoice, slot int, evicted *Owner) Placement {
	bucket := bk[0]
	if bucketChoice >= 0 {
		bucket = bk[1+bucketChoice]
	}
	idx := m.frameIndex(bucket, slot)
	fr := &m.frames[idx]
	if fr.used {
		//lint:ignore nopanic install slots are chosen from the free bits of the occupancy bitmap
		panic("alloc: installing into occupied frame")
	}
	fr.used = true
	fr.owner = Owner{ASID: asid, VPN: vpn}
	fr.lastAccess = now
	fr.dirty = false
	m.occupied[bucket] |= 1 << uint(slot)
	m.used++
	return Placement{PFN: core.PFN(idx), CPFN: cpfn, Evicted: evicted}
}

// PlaceAt installs (asid, vpn) into the specific candidate slot cpfn, which
// must be free — used to reuse a conflict victim's slot directly after the
// eviction policy has chosen and evicted it.
func (m *Memory) PlaceAt(asid core.ASID, vpn core.VPN, cpfn core.CPFN, now uint64) Placement {
	bk := m.buckets(asid, vpn)
	choice, slot := m.geom.Split(cpfn)
	within := slot
	if choice >= 0 {
		within = m.geom.FrontyardSize + slot
	}
	return m.install(bk, asid, vpn, now, cpfn, choice, within, nil)
}

// Candidates fills dst with the h candidate frames of (asid, vpn), in
// canonical CPFN order, and returns it. dst may be nil.
func (m *Memory) Candidates(asid core.ASID, vpn core.VPN, dst []Candidate) []Candidate {
	bk := m.buckets(asid, vpn)
	h := m.geom.Associativity()
	if cap(dst) < h {
		dst = make([]Candidate, h)
	}
	dst = dst[:h]
	for c := 0; c < h; c++ {
		cpfn := core.CPFN(c)
		pfn := m.geom.FrameFor(cpfn, bk)
		fr := &m.frames[pfn]
		dst[c] = Candidate{
			PFN:        pfn,
			CPFN:       cpfn,
			Used:       fr.used,
			Owner:      fr.owner,
			LastAccess: fr.lastAccess,
		}
	}
	return dst
}

// DecodeCPFN computes the physical frame a stored CPFN refers to for
// (asid, vpn) — the operation the mosaic TLB performs on every hit.
func (m *Memory) DecodeCPFN(asid core.ASID, vpn core.VPN, cpfn core.CPFN) core.PFN {
	return m.geom.FrameFor(cpfn, m.buckets(asid, vpn))
}

// Evict forcibly frees pfn (a live-page eviction chosen by the swapping
// policy) and returns the evicted owner. It panics if pfn is not an
// allocated frame.
func (m *Memory) Evict(pfn core.PFN) Owner {
	if !m.frames[pfn].used {
		panic(fmt.Sprintf("alloc: Evict of free frame %d", pfn))
	}
	return m.reclaim(int(pfn))
}

// Free releases pfn on unmap (no swap-out implied). It panics if pfn is
// not an allocated frame.
func (m *Memory) Free(pfn core.PFN) {
	if !m.frames[pfn].used {
		panic(fmt.Sprintf("alloc: Free of free frame %d", pfn))
	}
	m.clear(int(pfn))
}

// Touch records an access to pfn at time now, optionally dirtying it. It
// panics if pfn is not an allocated frame.
func (m *Memory) Touch(pfn core.PFN, now uint64, write bool) {
	fr := &m.frames[pfn]
	if !fr.used {
		panic(fmt.Sprintf("alloc: Touch of free frame %d", pfn))
	}
	fr.lastAccess = now
	if write {
		fr.dirty = true
	}
}

// MarkDirty records a store to pfn without touching recency — used by the
// access-bit emulation mode, where recency is updated only by the scan
// daemon. It panics if pfn is not an allocated frame.
func (m *Memory) MarkDirty(pfn core.PFN) {
	fr := &m.frames[pfn]
	if !fr.used {
		panic(fmt.Sprintf("alloc: MarkDirty of free frame %d", pfn))
	}
	fr.dirty = true
}

// FrameInfo reports the owner, last access time, dirtiness, and occupancy
// of pfn.
func (m *Memory) FrameInfo(pfn core.PFN) (owner Owner, lastAccess uint64, dirty, used bool) {
	fr := &m.frames[pfn]
	return fr.owner, fr.lastAccess, fr.dirty, fr.used
}

// FrontyardUsed counts occupied frontyard frames (live or ghost), a
// diagnostic for the iceberg load-balance invariants.
func (m *Memory) FrontyardUsed() int {
	f := m.geom.FrontyardSize
	n := 0
	fmask := uint64(1)<<uint(f) - 1
	for _, occ := range m.occupied {
		n += bits.OnesCount64(occ & fmask)
	}
	return n
}

// BackyardUsed counts occupied backyard frames (live or ghost).
func (m *Memory) BackyardUsed() int {
	f := m.geom.FrontyardSize
	n := 0
	bmask := (uint64(1)<<uint(m.geom.BackyardSize) - 1) << uint(f)
	for _, occ := range m.occupied {
		n += bits.OnesCount64(occ & bmask)
	}
	return n
}
