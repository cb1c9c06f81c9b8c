package vm

import (
	"fmt"
	"slices"

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
	r := &SharedRegion{id: s.nextRID, n: n, chunks: make([]*chunk, (n+ChunkPages-1)/ChunkPages)}
	for i := range r.chunks {
		r.chunks[i] = newChunk()
	}
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
		if as.mapped(vpn) {
			return fmt.Errorf("vm: VPN %#x already privately mapped in ASID %d", vpn, asid)
		}
		if _, clash := as.shared[vpn]; clash {
			return fmt.Errorf("vm: VPN %#x already share-mapped in ASID %d", vpn, asid)
		}
	}
	if as.shared == nil {
		as.shared = make(map[core.VPN]sharedRef, region.Len())
	}
	for i := 0; i < region.Len(); i++ {
		as.shared[baseVPN+core.VPN(i)] = sharedRef{region: region, index: i}
		s.notifyMap(asid, baseVPN+core.VPN(i))
	}
	region.maps += region.Len()
	region.addMapping(sharedMapping{asid: asid, base: baseVPN})
	return nil
}

// addMapping records m unless the region already lists it: a mapping
// whose pages were all unmapped one by one keeps its entry, and may be
// made again.
func (r *SharedRegion) addMapping(m sharedMapping) {
	if !slices.Contains(r.mappings, m) {
		r.mappings = append(r.mappings, m)
	}
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
	region.mappings = slices.DeleteFunc(region.mappings, func(m sharedMapping) bool {
		return m == sharedMapping{asid: asid, base: baseVPN}
	})
	s.releaseShared(region, region.Len())
	return nil
}

// releaseShared drops n page references to region; when the last mapped
// page goes away the region's pages are freed.
func (s *System) releaseShared(region *SharedRegion, n int) {
	region.maps -= n
	if region.maps > 0 {
		return
	}
	for _, c := range region.chunks {
		for i := range c.state {
			if c.state[i] == pageResident {
				s.freeFrame(c.pfn[i])
			}
			c.setAbsent(i, pageNone)
		}
	}
	delete(s.regions, region.id)
}
