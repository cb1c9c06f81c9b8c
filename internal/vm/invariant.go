package vm

import (
	"mosaic/internal/alloc"
	"mosaic/internal/core"
	"mosaic/internal/invariant"
)

// CheckInvariants performs a deep consistency check of the whole VM state,
// recording any violation on r. It first delegates to the allocator's own
// checker (bitmap/free-list integrity, owner hashing), then verifies the
// OS-level coherence the allocator cannot see:
//
//   - every resident page's frame is owned by exactly that (ASID, VPN) —
//     and, in mosaic mode, its stored CPFN decodes back to its PFN and the
//     allocator really knows the owner;
//   - every occupied frame belongs to some resident page (no leaked
//     frames), so resident-page count equals allocator Used();
//   - every swapped-out page has a swap-device slot and vice versa;
//   - every private record that is not resident holds CPFNInvalid and
//     the never stamp, so record windows read it as absent, and no
//     resident record is stamped after the access clock;
//   - the Horizon LRU's ghost threshold never exceeds the access clock
//     (a page cannot have been evicted at a time later than "now").
//
// It runs in O(frames + mapped pages); call it from tests, or periodically
// from memsim via Config.CheckEvery.
func (s *System) CheckInvariants(r *invariant.Report) {
	if s.mem != nil {
		s.mem.CheckInvariants(r)
	}
	if s.umem != nil {
		s.umem.CheckInvariants(r)
	}
	if s.hlru != nil && !r.Check(s.hlru.Horizon() <= s.clock) {
		r.Failf("vm.horizon-clock",
			"horizon %d exceeds access clock %d", s.hlru.Horizon(), s.clock)
	}

	resident := make(map[alloc.Owner]core.PFN, s.Used())
	swapped := 0
	checkPage := func(owner alloc.Owner, pg *page) {
		switch pg.state {
		case pageResident:
			resident[owner] = pg.pfn
			fOwner, _, _, used := s.frameInfo(pg.pfn)
			if !r.Check(used) {
				r.Failf("vm.resident-frame",
					"page %+v resident at frame %d, but the frame is free", owner, pg.pfn)
				return
			}
			if !r.Check(fOwner == owner) {
				r.Failf("vm.resident-owner",
					"page %+v resident at frame %d, owned by %+v", owner, pg.pfn, fOwner)
			}
			if s.mode == ModeMosaic {
				if !r.Check(s.mem.Geometry().ValidCPFN(pg.cpfn)) {
					r.Failf("vm.cpfn-valid",
						"page %+v stores invalid CPFN %d", owner, pg.cpfn)
					return
				}
				dec := s.mem.DecodeCPFN(owner.ASID, owner.VPN, pg.cpfn)
				if !r.Check(dec == pg.pfn) {
					r.Failf("vm.cpfn-decode",
						"page %+v CPFN %d decodes to frame %d, page records %d", owner, pg.cpfn, dec, pg.pfn)
				}
			}
		case pageSwapped:
			swapped++
			if !r.Check(s.dev.Contains(owner)) {
				r.Failf("vm.swap-slot",
					"page %+v marked swapped, but the device has no slot for it", owner)
			}
		}
	}
	for asid, as := range s.spaces {
		as.each(func(vpn core.VPN, c *chunk, i int) {
			owner := alloc.Owner{ASID: asid, VPN: vpn}
			checkPage(owner, &page{state: c.state[i], pfn: c.pfn[i], cpfn: c.cpfn[i], stamp: c.stamp[i]})
			if c.state[i] != pageResident {
				if !r.Check(c.cpfn[i] == core.CPFNInvalid && c.stamp[i] == never) {
					r.Failf("vm.record-absent",
						"page %+v is not resident, but its record holds CPFN %d stamped %d", owner, c.cpfn[i], c.stamp[i])
				}
			} else {
				if !r.Check(c.stamp[i] <= s.clock) {
					r.Failf("vm.record-stamp",
						"page %+v stamped %d, after the access clock %d", owner, c.stamp[i], s.clock)
				}
			}
		})
	}
	for _, region := range s.regions {
		for i := range region.pages {
			checkPage(alloc.Owner{ASID: sharedASID, VPN: sharedVPN(region.id, i)}, &region.pages[i])
		}
	}

	if !r.Check(len(resident) == s.Used()) {
		r.Failf("vm.resident-count",
			"%d resident pages, allocator reports %d frames used", len(resident), s.Used())
	}
	for idx := 0; idx < s.NumFrames(); idx++ {
		pfn := core.PFN(idx)
		owner, _, _, used := s.frameInfo(pfn)
		if !used {
			continue
		}
		if back, ok := resident[owner]; !ok {
			r.Violatef("vm.leaked-frame",
				"frame %d owned by %+v, but no resident page maps it", idx, owner)
		} else {
			if !r.Check(back == pfn) {
				r.Failf("vm.frame-backlink",
					"frame %d owned by %+v, whose page records frame %d", idx, owner, back)
			}
		}
	}
	if !r.Check(swapped == s.dev.Resident()) {
		r.Failf("vm.swap-count",
			"%d pages in swapped state, device holds %d", swapped, s.dev.Resident())
	}
}

// frameInfo dispatches FrameInfo to whichever allocator the mode uses.
func (s *System) frameInfo(pfn core.PFN) (alloc.Owner, uint64, bool, bool) {
	if s.mode == ModeMosaic {
		return s.mem.FrameInfo(pfn)
	}
	return s.umem.FrameInfo(pfn)
}
