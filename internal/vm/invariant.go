package vm

import (
	"mosaic/internal/alloc"
	"mosaic/internal/core"
	"mosaic/internal/invariant"
)

// CheckInvariants performs a deep consistency check of the whole VM state,
// recording any violation on r. It first delegates to the allocator's own
// checker (bitmap/free-list integrity, owner hashing), then verifies the
// OS-level coherence the allocator cannot see, over every page record:
//
//   - every resident page's frame is owned by exactly that (ASID, VPN) —
//     and, in mosaic mode, its stored CPFN decodes back to its PFN and the
//     allocator really knows the owner;
//   - every occupied frame belongs to some resident page (no leaked
//     frames), so resident-page count equals allocator Used();
//   - every record that is not resident holds CPFNInvalid and the never
//     stamp, so record windows read it as absent, and no resident record
//     is stamped after the access clock;
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
	checkRecord := func(owner alloc.Owner, c *chunk, i int) {
		if c.state[i] != pageResident {
			if !r.Check(c.cpfn[i] == core.CPFNInvalid && c.stamp[i] == never) {
				r.Failf("vm.record-absent",
					"page %+v is not resident, but its record holds CPFN %d stamped %d", owner, c.cpfn[i], c.stamp[i])
			}
			return
		}
		pfn, cpfn := c.pfn[i], c.cpfn[i]
		resident[owner] = pfn
		if !r.Check(c.stamp[i] <= s.clock) {
			r.Failf("vm.record-stamp",
				"page %+v stamped %d, after the access clock %d", owner, c.stamp[i], s.clock)
		}
		fOwner, _, _, used := s.frameInfo(pfn)
		if !r.Check(used) {
			r.Failf("vm.resident-frame",
				"page %+v resident at frame %d, but the frame is free", owner, pfn)
			return
		}
		if !r.Check(fOwner == owner) {
			r.Failf("vm.resident-owner",
				"page %+v resident at frame %d, owned by %+v", owner, pfn, fOwner)
		}
		if s.mode == ModeMosaic {
			if !r.Check(s.mem.Geometry().ValidCPFN(cpfn)) {
				r.Failf("vm.cpfn-valid",
					"page %+v stores invalid CPFN %d", owner, cpfn)
				return
			}
			dec := s.mem.DecodeCPFN(owner.ASID, owner.VPN, cpfn)
			if !r.Check(dec == pfn) {
				r.Failf("vm.cpfn-decode",
					"page %+v CPFN %d decodes to frame %d, page records %d", owner, cpfn, dec, pfn)
			}
		}
	}
	for asid, as := range s.spaces {
		as.each(func(vpn core.VPN, c *chunk, i int) {
			checkRecord(alloc.Owner{ASID: asid, VPN: vpn}, c, i)
		})
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
}

// frameInfo dispatches FrameInfo to whichever allocator the mode uses.
func (s *System) frameInfo(pfn core.PFN) (alloc.Owner, uint64, bool, bool) {
	if s.mode == ModeMosaic {
		return s.mem.FrameInfo(pfn)
	}
	return s.umem.FrameInfo(pfn)
}
