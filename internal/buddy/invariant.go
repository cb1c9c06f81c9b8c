package buddy

import (
	"mosaic/internal/invariant"
)

// CheckInvariants performs a deep consistency check of the buddy allocator,
// recording any violation on r:
//
//   - every free block and every allocated block is aligned to its order
//     and lies inside the managed range;
//   - free and allocated blocks tile memory with no overlap and no gap
//     (every frame belongs to exactly one block);
//   - no two buddies are both free at the same order — coalescing in Free
//     is eager, so such a pair means a missed merge;
//   - freeFrames equals the summed size of the free lists.
//
// It runs in O(frames); call it from tests, not per operation.
func (a *Allocator) CheckInvariants(r *invariant.Report) {
	// coverage[frame] counts how many blocks (free or allocated) claim it.
	coverage := make([]int, a.frames)
	claim := func(base uint64, order int, kind string) {
		size := uint64(1) << uint(order)
		if !r.Check(base%size == 0) {
			r.Failf("buddy.alignment",
				"%s block base %d not aligned to order %d", kind, base, order)
			return
		}
		if !r.Check(base+size <= uint64(a.frames)) {
			r.Failf("buddy.range",
				"%s block [%d,%d) exceeds %d frames", kind, base, base+size, a.frames)
			return
		}
		for p := base; p < base+size; p++ {
			coverage[p]++
		}
	}

	freeTot := 0
	for order, blocks := range a.freeLists {
		freeTot += len(blocks) << uint(order)
		for base := range blocks {
			claim(base, order, "free")
			if order < MaxOrder {
				buddy := base ^ 1<<uint(order)
				if !r.Check(!blocks[buddy] || buddy < base) {
					r.Failf("buddy.uncoalesced",
						"blocks %d and %d are buddies, both free at order %d", base, buddy, order)
				}
			}
		}
	}
	if !r.Check(freeTot == a.freeFrames) {
		r.Failf("buddy.free-count",
			"freeFrames %d, free lists hold %d", a.freeFrames, freeTot)
	}

	for base, order := range a.blockOrder {
		if !r.Check(order >= 0 && order <= MaxOrder) {
			r.Failf("buddy.order-range",
				"allocated block %d has order %d", base, order)
		}
		claim(base, order, "allocated")
	}

	for p, n := range coverage {
		if n != 1 {
			r.Violatef("buddy.tiling", "frame %d belongs to %d blocks, want exactly 1", p, n)
		}
	}
}
