package vm

import (
	"fmt"

	"mosaic/internal/alloc"
	"mosaic/internal/core"
)

// The §2.5 location-ID extension: shared pages are hashed by
// (location ID, index) instead of (ASID, VPN), so every mapping of a region
// resolves to the same candidate frames and the same CPFNs. Internally a
// shared page is identified by a synthetic owner in the reserved sharedASID
// namespace whose VPN packs (regionID, index).

const sharedIndexBits = 24

func sharedVPN(rid uint32, index int) core.VPN {
	return core.VPN(uint64(rid)<<sharedIndexBits | uint64(index))
}

func splitSharedVPN(vpn core.VPN) (rid uint32, index int) {
	return uint32(uint64(vpn) >> sharedIndexBits), int(uint64(vpn) & (1<<sharedIndexBits - 1))
}

// CreateSharedRegion allocates a region of n pages shareable across address
// spaces. The location ID is assigned sequentially; the paper suggests
// random assignment to enable cheap hardware hashing, but for placement
// behaviour only distinctness matters.
func (s *System) CreateSharedRegion(n int) (*SharedRegion, error) {
	if n <= 0 {
		return nil, fmt.Errorf("vm: shared region size %d must be positive", n)
	}
	if n >= 1<<sharedIndexBits {
		return nil, fmt.Errorf("vm: shared region size %d exceeds %d pages", n, 1<<sharedIndexBits-1)
	}
	s.nextRID++
	r := &SharedRegion{id: s.nextRID, pages: make([]page, n)}
	s.regions[r.id] = r
	return r, nil
}

// MapShared maps region into asid's address space at [baseVPN,
// baseVPN+region.Len()). The pages themselves fault in lazily on first
// touch from any mapping.
func (s *System) MapShared(asid core.ASID, baseVPN core.VPN, region *SharedRegion) error {
	if region == nil {
		return fmt.Errorf("vm: nil shared region")
	}
	if s.regions[region.id] != region {
		return fmt.Errorf("vm: shared region %d does not belong to this system", region.id)
	}
	as := s.Space(asid)
	for i := 0; i < region.Len(); i++ {
		vpn := baseVPN + core.VPN(i)
		if _, clash := as.private[vpn]; clash {
			return fmt.Errorf("vm: VPN %#x already privately mapped in ASID %d", vpn, asid)
		}
		if _, clash := as.shared[vpn]; clash {
			return fmt.Errorf("vm: VPN %#x already share-mapped in ASID %d", vpn, asid)
		}
	}
	for i := 0; i < region.Len(); i++ {
		as.shared[baseVPN+core.VPN(i)] = sharedRef{region: region, index: i}
	}
	region.maps++
	return nil
}

// UnmapShared removes a whole shared mapping from asid's space.
func (s *System) UnmapShared(asid core.ASID, baseVPN core.VPN, region *SharedRegion) error {
	as, ok := s.spaces[asid]
	if !ok {
		return fmt.Errorf("vm: ASID %d has no address space", asid)
	}
	for i := 0; i < region.Len(); i++ {
		vpn := baseVPN + core.VPN(i)
		ref, ok := as.shared[vpn]
		if !ok || ref.region != region || ref.index != i {
			return fmt.Errorf("vm: VPN %#x is not a mapping of region %d", vpn, region.id)
		}
	}
	for i := 0; i < region.Len(); i++ {
		delete(as.shared, baseVPN+core.VPN(i))
	}
	s.releaseSharedMapping(region)
	return nil
}

// releaseSharedMapping drops one mapping reference; when the last mapping
// goes away the region's pages are freed.
func (s *System) releaseSharedMapping(region *SharedRegion) {
	region.maps--
	if region.maps > 0 {
		return
	}
	for i := range region.pages {
		pg := &region.pages[i]
		switch pg.state {
		case pageResident:
			if s.mode == ModeMosaic {
				s.mem.Free(pg.pfn)
			} else {
				s.policy.OnRemove(pg.pfn)
				s.umem.Free(pg.pfn)
			}
		case pageSwapped:
			s.dev.Drop(alloc.Owner{ASID: sharedASID, VPN: sharedVPN(region.id, i)})
		}
		*pg = page{}
	}
	delete(s.regions, region.id)
}

func (s *System) touchShared(ref sharedRef, write bool) AccessResult {
	pg := &ref.region.pages[ref.index]
	owner := alloc.Owner{ASID: sharedASID, VPN: sharedVPN(ref.region.id, ref.index)}
	switch pg.state {
	case pageResident:
		s.lastPFN, s.lastCPFN = pg.pfn, pg.cpfn
		s.touchFrame(pg.pfn, write)
		return Hit
	case pageSwapped:
		s.cMajorFault.Inc()
		if !s.dev.PageIn(owner) {
			//lint:ignore nopanic every shared page marked pageSwapped was handed to the device by recordEviction
			panic("vm: swapped shared page missing from swap device")
		}
		s.fillSharedPage(owner, pg, write)
		return MajorFault
	default:
		s.cMinorFault.Inc()
		s.fillSharedPage(owner, pg, write)
		return MinorFault
	}
}

func (s *System) fillSharedPage(owner alloc.Owner, pg *page, write bool) {
	pfn, cpfn := s.allocate(owner.ASID, owner.VPN)
	pg.state = pageResident
	pg.pfn = pfn
	pg.cpfn = cpfn
	s.lastPFN, s.lastCPFN = pfn, cpfn
	if write {
		s.touchDirty(pfn)
	}
}
