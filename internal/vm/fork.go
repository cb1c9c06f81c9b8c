package vm

import (
	"fmt"
	"slices"

	"mosaic/internal/alloc"
	"mosaic/internal/core"
)

// fork() and mosaic pages (§2.5, §3.2). Mosaic placement is keyed by
// (ASID, VPN), so a child process cannot simply reference its parent's
// frames: the parent's frames are, in general, not in the child's candidate
// sets. The paper's prototype therefore does not support inheriting mosaic
// pages via fork() at all. This file implements the semantics a mosaic
// kernel could offer today — eager copy, where every inherited page is
// re-placed under the child's own constraints — and makes the cost explicit
// (the returned copy count). Copy-on-write inheritance would require the
// location-ID mechanism from construction time; see SharedRegion for that
// path.

// ForkStats reports what a ForkCopy did.
type ForkStats struct {
	// CopiedPages is the number of resident pages physically copied into
	// child-constrained frames.
	CopiedPages int
	// ClonedSwapSlots is the number of swapped-out pages whose swap slots
	// were duplicated for the child (no I/O: the device copy is logical).
	ClonedSwapSlots int
	// SharedMappings is the number of location-ID region mappings the
	// child inherited by reference (no copying needed — the §2.5 design).
	SharedMappings int
}

// ForkCopy clones parent's address space into child (which must be empty):
// resident private pages are eagerly copied into frames drawn from the
// child's own candidate sets, swapped pages get cloned swap slots, and
// shared-region mappings are inherited by reference. The copies may evict
// other pages under memory pressure, exactly like any other allocation.
func (s *System) ForkCopy(parent, child core.ASID) (ForkStats, error) {
	if parent == child {
		return ForkStats{}, fmt.Errorf("vm: fork onto the same ASID %d", parent)
	}
	pas, ok := s.spaces[parent]
	if !ok {
		return ForkStats{}, fmt.Errorf("vm: parent ASID %d has no address space", parent)
	}
	cas := s.Space(child)
	if s.MappedPages(child) != 0 || len(cas.shared) != 0 {
		return ForkStats{}, fmt.Errorf("vm: child ASID %d is not empty", child)
	}

	var st ForkStats
	// Shared mappings: inherit by reference (each inherited page holds its
	// own region reference).
	if len(pas.shared) != 0 {
		cas.shared = make(map[core.VPN]sharedRef, len(pas.shared))
	}
	inherited := make([]core.VPN, 0, len(pas.shared))
	for vpn, ref := range pas.shared {
		cas.shared[vpn] = ref
		ref.region.maps++
		inherited = append(inherited, vpn)
	}
	st.SharedMappings = len(inherited)
	slices.Sort(inherited)
	for _, vpn := range inherited {
		ref := cas.shared[vpn]
		ref.region.addMapping(sharedMapping{asid: child, base: vpn - core.VPN(ref.index)})
		s.notifyMap(child, vpn)
	}

	// Private pages: eager copy or swap-slot clone, in VPN order so fork
	// results are deterministic even when the copies trigger evictions.
	// Each parent record's state is read when its turn comes: an earlier
	// copy may have evicted it.
	pas.each(func(vpn core.VPN, pc *chunk, i int) {
		c, j := cas.record(vpn)
		switch pc.state[i] {
		case pageResident:
			s.clock++
			s.fillPage(child, vpn, c, j, true) // the copy dirties the new frame
			s.cForkCopy.Inc()
			st.CopiedPages++
			s.notifyMap(child, vpn)
		case pageSwapped:
			s.dev.Clone(
				alloc.Owner{ASID: parent, VPN: vpn},
				alloc.Owner{ASID: child, VPN: vpn},
			)
			c.setAbsent(j, pageSwapped)
			st.ClonedSwapSlots++
		}
	})
	return st, nil
}
