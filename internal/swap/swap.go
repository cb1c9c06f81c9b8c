// Package swap implements the page-eviction policies and the swap-device
// model used by the OS layer.
//
// Two policies are provided:
//
//   - HorizonLRU (§2.4 of the paper): mosaic's eviction algorithm. It keeps
//     a horizon — the high-water mark of the access times of all pages it
//     has evicted. Pages whose last access predates the horizon are ghosts:
//     still resident, revived for free if touched, but treated as free by
//     the allocator. On an associativity conflict the policy evicts the
//     least-recently-used page among the conflicting candidates and raises
//     the horizon to that page's access time, ghosting everything older —
//     exactly the set a global LRU would have evicted.
//
//   - TwoListLRU: an approximation of Linux's active/inactive list reclaim,
//     used as the baseline ("Linux" columns of Tables 3 and 4). It inherits
//     the well-known LRU-approximation weaknesses (e.g. cyclic access
//     patterns) that §4.3 credits for some of mosaic's wins.
//
// A Device counts swap I/Os the way sysstat does: one page-out per page
// written to swap, one page-in per page read back. It keeps only those
// counts: which pages are swapped out is recorded in the OS layer's page
// records, not here.
package swap

import (
	"fmt"

	"mosaic/internal/alloc"
	"mosaic/internal/core"
	"mosaic/internal/obs"
)

// Device models a swap device (the paper uses a 4 GiB ramdisk) by
// counting its I/O operations.
type Device struct {
	out, in *obs.Counter
}

// NewDevice creates a device that counts its I/Os in r's swap.out and
// swap.in counters.
func NewDevice(r *obs.Registry) *Device {
	return &Device{out: r.Counter("swap.out"), in: r.Counter("swap.in")}
}

// PageOut records a page being written to swap.
func (d *Device) PageOut() { d.out.Inc() }

// PageIn records a page being read back from swap.
func (d *Device) PageIn() { d.in.Inc() }

// PageOuts is the cumulative number of pages written to swap.
func (d *Device) PageOuts() uint64 { return d.out.Value() }

// PageIns is the cumulative number of pages read from swap.
func (d *Device) PageIns() uint64 { return d.in.Value() }

// TotalIO is PageOuts + PageIns — the quantity Table 4 reports.
func (d *Device) TotalIO() uint64 { return d.PageOuts() + d.PageIns() }

// HorizonLRU is mosaic's eviction policy. The heavy lifting — ghost
// detection and reclamation — happens inside the allocator using the
// horizon this policy maintains; HorizonLRU itself only tracks the horizon
// and selects conflict victims.
type HorizonLRU struct {
	horizon uint64
}

// NewHorizonLRU creates a policy with a zero horizon (no ghosts).
func NewHorizonLRU() *HorizonLRU { return &HorizonLRU{} }

// Horizon is the current ghost threshold: resident pages with
// lastAccess < Horizon() are ghosts.
func (h *HorizonLRU) Horizon() uint64 { return h.horizon }

// PickVictim chooses the eviction victim for an associativity conflict: the
// least-recently-used live page among the candidates. It returns false if
// no candidate is occupied (which would mean the conflict was spurious).
func (h *HorizonLRU) PickVictim(cands []alloc.Candidate) (alloc.Candidate, bool) {
	var victim alloc.Candidate
	found := false
	for _, c := range cands {
		if !c.Used {
			continue
		}
		if !found || c.LastAccess < victim.LastAccess {
			victim, found = c, true
		}
	}
	return victim, found
}

// NoteEviction raises the horizon to the evicted page's last access time.
// Every resident page whose last access is older than the new horizon
// becomes a ghost — the set a global LRU of the same capacity would
// already have evicted.
func (h *HorizonLRU) NoteEviction(lastAccess uint64) {
	if lastAccess > h.horizon {
		h.horizon = lastAccess
	}
}

// list node states for the intrusive lists below.
const (
	onNone = iota
	onInactive
	onActive
)

type node struct {
	prev, next int
	where      uint8
	referenced bool
}

// intrusive doubly-linked list over a shared node arena, identified by a
// sentinel index.
type list struct {
	head int // sentinel node index
	len  int
}

func newList(nodes []node, sentinel int) list {
	nodes[sentinel].prev = sentinel
	nodes[sentinel].next = sentinel
	return list{head: sentinel}
}

func (l *list) pushFront(nodes []node, i int) {
	n := &nodes[i]
	h := &nodes[l.head]
	n.next = h.next
	n.prev = l.head
	nodes[h.next].prev = i
	h.next = i
	l.len++
}

func (l *list) remove(nodes []node, i int) {
	n := &nodes[i]
	nodes[n.prev].next = n.next
	nodes[n.next].prev = n.prev
	n.prev, n.next = i, i
	l.len--
}

func (l *list) tail(nodes []node) (int, bool) {
	if l.len == 0 {
		return 0, false
	}
	return nodes[l.head].prev, true
}

// TwoListLRU approximates Linux's split LRU: pages enter the inactive list
// on fault; a second reference while inactive promotes them to the active
// list. Reclaim scans the inactive tail with second chances and demotes
// active pages to keep the lists balanced, mirroring kswapd's
// shrink_active_list/shrink_inactive_list structure.
type TwoListLRU struct {
	nodes    []node
	active   list
	inactive list
	count    int
}

// NewTwoListLRU creates a policy for frames [0, numFrames).
func NewTwoListLRU(numFrames int) *TwoListLRU {
	nodes := make([]node, numFrames+2)
	p := &TwoListLRU{nodes: nodes}
	p.active = newList(nodes, numFrames)
	p.inactive = newList(nodes, numFrames+1)
	return p
}

// OnFault records that pfn became resident. New pages start on the
// inactive list, not yet referenced (matching Linux's treatment of freshly
// faulted anon pages, which start inactive when there is reclaim
// pressure). It panics if pfn is already tracked.
func (p *TwoListLRU) OnFault(pfn core.PFN) {
	n := &p.nodes[pfn]
	if n.where != onNone {
		panic(fmt.Sprintf("swap: OnFault of tracked frame %d", pfn))
	}
	n.where = onInactive
	n.referenced = false
	p.inactive.pushFront(p.nodes, int(pfn))
	p.count++
}

// OnAccess records a reference to resident pfn. The first reference sets
// the referenced bit (hardware access bit); a reference to an
// already-referenced inactive page promotes it to the active list. It
// panics if pfn is not resident.
func (p *TwoListLRU) OnAccess(pfn core.PFN) {
	n := &p.nodes[pfn]
	switch n.where {
	case onInactive:
		if n.referenced {
			p.inactive.remove(p.nodes, int(pfn))
			n.where = onActive
			n.referenced = false
			p.active.pushFront(p.nodes, int(pfn))
		} else {
			n.referenced = true
		}
	case onActive:
		n.referenced = true
	default:
		panic(fmt.Sprintf("swap: OnAccess of untracked frame %d", pfn))
	}
}

// OnAccessN records n back-to-back references to resident pfn, leaving
// the lists exactly as n OnAccess calls would. At most three references
// take any page to the active list with its bit set, and a reference
// changes nothing there, so it makes at most three OnAccess calls.
func (p *TwoListLRU) OnAccessN(pfn core.PFN, n uint64) {
	for range min(n, 3) {
		p.OnAccess(pfn)
	}
}

// OnRemove records that pfn left memory. It panics if pfn is not resident.
func (p *TwoListLRU) OnRemove(pfn core.PFN) {
	n := &p.nodes[pfn]
	switch n.where {
	case onInactive:
		p.inactive.remove(p.nodes, int(pfn))
	case onActive:
		p.active.remove(p.nodes, int(pfn))
	default:
		panic(fmt.Sprintf("swap: OnRemove of untracked frame %d", pfn))
	}
	n.where = onNone
	n.referenced = false
	p.count--
}

// Victim selects a resident page to reclaim. It first rebalances
// (demoting active-tail pages while the active list outnumbers the
// inactive list), then scans the inactive tail: referenced pages get a
// second chance (promotion), the first unreferenced page is the victim.
// Victim panics if no pages are resident.
func (p *TwoListLRU) Victim() core.PFN {
	if p.count == 0 {
		panic("swap: Victim with no resident pages")
	}
	// shrink_active_list: demote from the active tail, clearing the
	// referenced bit, until the lists are balanced.
	for p.active.len > p.inactive.len {
		i, _ := p.active.tail(p.nodes)
		p.active.remove(p.nodes, i)
		p.nodes[i].where = onInactive
		p.nodes[i].referenced = false
		p.inactive.pushFront(p.nodes, i)
	}
	// shrink_inactive_list: second-chance scan of the inactive tail. Each
	// promotion shrinks the inactive list, so this terminates — in the
	// worst case by draining the inactive list and rebalancing again.
	for {
		i, ok := p.inactive.tail(p.nodes)
		if !ok {
			for p.active.len > 0 && p.inactive.len < 1 {
				j, _ := p.active.tail(p.nodes)
				p.active.remove(p.nodes, j)
				p.nodes[j].where = onInactive
				p.nodes[j].referenced = false
				p.inactive.pushFront(p.nodes, j)
			}
			i, ok = p.inactive.tail(p.nodes)
			if !ok {
				panic("swap: two-list policy lost all pages")
			}
		}
		n := &p.nodes[i]
		if n.referenced {
			p.inactive.remove(p.nodes, i)
			n.where = onActive
			n.referenced = false
			p.active.pushFront(p.nodes, i)
			continue
		}
		return core.PFN(i)
	}
}

// Len is the number of tracked resident pages.
func (p *TwoListLRU) Len() int { return p.count }

// ActiveLen reports the active-list length (diagnostic).
func (p *TwoListLRU) ActiveLen() int { return p.active.len }

// InactiveLen reports the inactive-list length (diagnostic).
func (p *TwoListLRU) InactiveLen() int { return p.inactive.len }
