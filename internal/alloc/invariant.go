package alloc

import (
	"math/bits"

	"mosaic/internal/invariant"
)

// CheckInvariants performs a deep consistency check of the mosaic memory,
// recording any violation on r:
//
//   - the occupancy bitmap agrees bit-for-bit with the per-frame used
//     flags, and the used total matches the bitmap population count —
//     Place chooses slots from these bits, so a disagreement silently
//     double-allocates or leaks frames;
//   - every occupied frame sits in one of its owner's candidate buckets
//     (its frontyard bucket if the frame is a frontyard slot, one of its
//     d backyard choices otherwise), i.e. the owner's CPFN can decode back
//     to this frame;
//   - no (ASID, VPN) owns two frames.
//
// It runs in O(frames) plus one hash evaluation per occupied frame; call
// it from tests and fuzzers, not per operation.
func (m *Memory) CheckInvariants(r *invariant.Report) {
	bs := m.geom.BucketSize()
	f := m.geom.FrontyardSize

	pop := 0
	for bkt, occ := range m.occupied {
		pop += bits.OnesCount64(occ)
		for s := 0; s < bs; s++ {
			idx := bkt*bs + s
			bit := occ&(1<<uint(s)) != 0
			if !r.Check(bit == m.frames[idx].used) {
				r.Failf("alloc.occupancy-bitmap",
					"frame %d: bitmap says used=%v, frame record says used=%v", idx, bit, m.frames[idx].used)
			}
		}
	}
	if !r.Check(pop == m.used) {
		r.Failf("alloc.used-count",
			"used %d, bitmap population %d", m.used, pop)
	}

	seen := make(map[Owner]int, m.used)
	for idx := range m.frames {
		fr := &m.frames[idx]
		if !fr.used {
			continue
		}
		if prev, dup := seen[fr.owner]; dup {
			r.Violatef("alloc.duplicate-owner",
				"page %+v owns frames %d and %d", fr.owner, prev, idx)
			continue
		}
		seen[fr.owner] = idx
		bk := m.buckets(fr.owner.ASID, fr.owner.VPN)
		bucket := uint64(idx / bs)
		if idx%bs < f {
			if !r.Check(bk[0] == bucket) {
				r.Failf("alloc.owner-location",
					"page %+v in frontyard of bucket %d, hashes to %d", fr.owner, bucket, bk[0])
			}
		} else {
			ok := false
			for j := 0; j < m.geom.Choices; j++ {
				if bk[1+j] == bucket {
					ok = true
				}
			}
			if !r.Check(ok) {
				r.Failf("alloc.owner-location",
					"page %+v in backyard of bucket %d, not among its choices %v", fr.owner, bucket, bk[1:])
			}
		}
	}
}

// CheckInvariants performs a deep consistency check of the baseline
// allocator, recording any violation on r: the free stack and the per-frame
// used flags must partition the frames (no frame both free and used, no
// frame on the free stack twice, counts adding up), and no (ASID, VPN) may
// own two frames.
func (u *Unconstrained) CheckInvariants(r *invariant.Report) {
	onFree := make([]bool, len(u.frames))
	for _, pfn := range u.free {
		// Range-check before narrowing: int(pfn) is only meaningful once
		// pfn is known to be a frames index.
		if !r.Check(uint64(pfn) < uint64(len(u.frames))) {
			r.Failf("alloc.free-range",
				"free list holds out-of-range frame %d", uint64(pfn))
			continue
		}
		idx := int(pfn)
		if !r.Check(!onFree[idx]) {
			r.Failf("alloc.free-duplicate",
				"frame %d on the free list twice", idx)
			continue
		}
		onFree[idx] = true
		if !r.Check(!u.frames[idx].used) {
			r.Failf("alloc.free-used",
				"frame %d is on the free list but marked used", idx)
		}
	}
	used := 0
	seen := make(map[Owner]int, max(0, len(u.frames)-len(u.free)))
	for idx := range u.frames {
		if !u.frames[idx].used {
			if !r.Check(onFree[idx]) {
				r.Failf("alloc.leaked-frame",
					"frame %d is neither used nor on the free list", idx)
			}
			continue
		}
		used++
		owner := u.frames[idx].owner
		if prev, dup := seen[owner]; dup {
			r.Violatef("alloc.duplicate-owner",
				"page %+v owns frames %d and %d", owner, prev, idx)
			continue
		}
		seen[owner] = idx
	}
	if !r.Check(used+len(u.free) == len(u.frames)) {
		r.Failf("alloc.used-count",
			"%d used + %d free != %d frames", used, len(u.free), len(u.frames))
	}
}
