package vm

import (
	"math"
	"slices"

	"mosaic/internal/core"
)

// Page records. A record is the only store of a page's state: an address
// space keeps one per private page, and a shared region one per page of
// the region, in chunks of the same type. A space's records are stored
// densely: records live in chunks of ChunkPages consecutive VPNs, a
// directory holds the chunks of 2^dirShift pages, and the space keeps its
// directories in a map keyed by the VPN's high bits, cached on the last key
// (a simulated heap is contiguous, so a stream stays in one directory). A
// Touch that hits finds its record with two array indexings and no map
// probe.
//
// A chunk stores its records as columns. A record that is not resident
// holds CPFNInvalid in the CPFN column and the never stamp in the stamp
// column, so any aligned arity-long window of the CPFN column is exactly
// the table of contents a mosaic page-table leaf holds (§3.1, Figure 5):
// the page table the memory-system simulator walks is a view of these
// records, not a copy of them.

const (
	chunkShift = 9
	// ChunkPages is the number of records in one chunk, and so the longest
	// aligned window of records Window can view.
	ChunkPages = 1 << chunkShift
	// dirShift is log2 of the pages one directory covers.
	dirShift = 18
	// blockPages is the run of records one newest stamp covers: the
	// longest arity the paper uses, so a ToC window of at most 64 records
	// checks one word to learn whether it needs masking.
	blockPages = 64
)

// never is the stamp of a record that is not resident: no clock value
// reaches it, so a non-resident page is absent as of every clock.
const never = math.MaxUint64

// chunk holds ChunkPages consecutive page records as columns.
type chunk struct {
	state [ChunkPages]pageState
	cpfn  [ChunkPages]core.CPFN
	pfn   [ChunkPages]core.PFN
	// stamp is the access clock at which the page became resident, never
	// while it is not.
	stamp [ChunkPages]uint64
	// newest is, per aligned block of blockPages records, the latest
	// stamp any of them was given. It only grows, with the clock.
	newest [ChunkPages / blockPages]uint64
}

func newChunk() *chunk {
	c := &chunk{}
	for i := range c.cpfn {
		c.cpfn[i] = core.CPFNInvalid
		c.stamp[i] = never
	}
	return c
}

// directory holds the chunks of 2^dirShift pages.
type directory [1 << (dirShift - chunkShift)]*chunk

// split locates vpn's record: its directory key, its chunk's index in
// the directory, and its index in the chunk.
func split(vpn core.VPN) (key uint64, ci int, i int) {
	return uint64(vpn) >> dirShift, int(uint64(vpn)>>chunkShift) & (len(directory{}) - 1), int(uint64(vpn) & (ChunkPages - 1))
}

// dir returns the directory with the given key, nil if it does not exist
// and create is false.
func (as *AddressSpace) dir(key uint64, create bool) *directory {
	if d := as.lastDir; d != nil && as.lastKey == key {
		return d
	}
	d := as.dirs[key]
	if d == nil {
		if !create {
			return nil
		}
		d = new(directory)
		as.dirs[key] = d
	}
	as.lastKey, as.lastDir = key, d
	return d
}

// record returns the chunk holding vpn's record, creating it if needed,
// and the record's index in it.
func (as *AddressSpace) record(vpn core.VPN) (*chunk, int) {
	key, ci, i := split(vpn)
	d := as.dir(key, true)
	c := d[ci]
	if c == nil {
		c = newChunk()
		d[ci] = c
	}
	return c, i
}

// lookup is record without creation: nil when no chunk holds vpn.
func (as *AddressSpace) lookup(vpn core.VPN) (*chunk, int) {
	key, ci, i := split(vpn)
	d := as.dir(key, false)
	if d == nil {
		return nil, 0
	}
	return d[ci], i
}

// touchRecord is record for a Touch of a space that maps shared regions:
// for a shared page it returns the region's record and the owner placement
// hashes (sharedASID and the region's packed index), otherwise the private
// record and (as.asid, vpn).
func (as *AddressSpace) touchRecord(vpn core.VPN) (*chunk, int, core.ASID, core.VPN) {
	if ref, ok := as.shared[vpn]; ok {
		c, i := ref.region.record(ref.index)
		return c, i, sharedASID, sharedVPN(ref.region.id, ref.index)
	}
	c, i := as.record(vpn)
	return c, i, as.asid, vpn
}

// record returns the chunk holding page i's record and the record's index
// in it.
func (r *SharedRegion) record(i int) (*chunk, int) {
	return r.chunks[i>>chunkShift], i & (ChunkPages - 1)
}

// mapped reports whether vpn has a private record (resident or swapped).
func (as *AddressSpace) mapped(vpn core.VPN) bool {
	c, i := as.lookup(vpn)
	return c != nil && c.state[i] != pageNone
}

// each calls fn for every private record that is mapped, in ascending VPN
// order. fn reads the record's state when it is called, so it sees the
// effects of its own earlier calls (ForkCopy's copies may evict pages of
// the space it walks).
func (as *AddressSpace) each(fn func(vpn core.VPN, c *chunk, i int)) {
	keys := make([]uint64, 0, len(as.dirs))
	for k := range as.dirs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		for ci, c := range as.dirs[k] {
			if c == nil {
				continue
			}
			base := core.VPN(k<<dirShift | uint64(ci)<<chunkShift)
			for i := range c.state {
				if c.state[i] != pageNone {
					fn(base+core.VPN(i), c, i)
				}
			}
		}
	}
}

// setResident records that the page became resident at frame pfn with
// CPFN cpfn, at the current clock.
func (c *chunk) setResident(i int, pfn core.PFN, cpfn core.CPFN, clock uint64) {
	c.state[i], c.pfn[i], c.cpfn[i], c.stamp[i] = pageResident, pfn, cpfn, clock
	c.newest[i/blockPages] = clock
}

// setAbsent records that the page left memory: swapped, or (pageNone)
// unmapped.
func (c *chunk) setAbsent(i int, state pageState) {
	c.state[i], c.pfn[i], c.cpfn[i], c.stamp[i] = state, 0, core.CPFNInvalid, never
}

// Window is a read-only view of an aligned run of an address space's page
// records, read as of a point of the access clock: a page that became
// resident after that point reads as absent. It is valid until the next
// change to the System.
type Window struct {
	c     *chunk
	lo, n int // the run is records [lo, lo+n) of c
	// newest bounds the stamps of the run's resident pages.
	newest uint64
}

// CPFN is the CPFN of the window's j-th page as of clock: CPFNInvalid
// unless the page was resident then.
func (w Window) CPFN(j int, clock uint64) core.CPFN {
	if w.c.stamp[w.lo+j] > clock {
		return core.CPFNInvalid
	}
	return w.c.cpfn[w.lo+j]
}

// CPFNs returns the window's CPFNs as of clock: the whole ToC a walk at
// that clock reads. When no page of the window became resident after
// clock it is the records' own CPFN column, which the caller must not
// modify; otherwise it is a masked copy in dst, which must be at least as
// long as the window.
func (w Window) CPFNs(clock uint64, dst []core.CPFN) []core.CPFN {
	if w.newest <= clock {
		return w.c.cpfn[w.lo : w.lo+w.n]
	}
	dst = dst[:w.n]
	for j := range dst {
		dst[j] = w.CPFN(j, clock)
	}
	return dst
}

// PFN is the frame of the window's j-th page as of clock, and whether the
// page was resident then.
func (w Window) PFN(j int, clock uint64) (core.PFN, bool) {
	if w.c.stamp[w.lo+j] > clock {
		return 0, false
	}
	return w.c.pfn[w.lo+j], true
}

// emptyChunk backs windows over pages no record holds.
var emptyChunk = newChunk()

// Window returns the view of the n records of the aligned run that holds
// vpn. n must be a power of two no larger than ChunkPages, so the run lies
// in one chunk. Shared-region pages mapped into the run read through to
// their region's records.
func (as *AddressSpace) Window(vpn core.VPN, n int) Window {
	c, _ := as.lookup(vpn)
	if c == nil {
		c = emptyChunk
	}
	w := Window{c: c, lo: int(uint64(vpn)&(ChunkPages-1)) &^ (n - 1), n: n}
	for b := w.lo / blockPages; b <= (w.lo+n-1)/blockPages; b++ {
		w.newest = max(w.newest, c.newest[b])
	}
	if len(as.shared) == 0 {
		return w
	}
	// Copy the run into the space's scratch chunk and overlay the shared
	// pages, which live in their regions' records.
	if as.scratch == nil {
		as.scratch = newChunk()
	}
	sc := as.scratch
	base := vpn &^ core.VPN(n-1)
	copy(sc.pfn[:n], c.pfn[w.lo:])
	copy(sc.cpfn[:n], c.cpfn[w.lo:])
	copy(sc.stamp[:n], c.stamp[w.lo:])
	for j := 0; j < n; j++ {
		if ref, ok := as.shared[base+core.VPN(j)]; ok {
			rc, ri := ref.region.record(ref.index)
			sc.pfn[j], sc.cpfn[j], sc.stamp[j] = rc.pfn[ri], rc.cpfn[ri], rc.stamp[ri]
		}
	}
	return Window{c: sc, n: n, newest: never}
}
