// Package tlb implements the set-associative TLB models of §3.1: a
// conventional ("vanilla") TLB mapping VPNs to PFNs, a mosaic TLB mapping
// MVPNs to tables of contents (ToCs) of compressed physical frame numbers,
// and a CoLT-style coalescing TLB. All three share one replacement
// machinery, the flat table, so that, as in the paper's gem5 model, the
// designs differ only in what an entry stores. A table holds every set's
// tags, LRU links and free slots in flat arrays indexed by a global slot
// number; each TLB keeps its payload in its own array under that number.
// The package holds no Go map: sets wider than scanWays find a tag through
// an open-addressed index.
package tlb

import "fmt"

// scanWays is the widest set that finds a tag by scanning its contiguous
// tags; wider sets probe an open-addressed index. BenchmarkVanillaLookupHit
// places the crossover (x86-64, Go 1.24, median of 5, ns/lookup, scan vs
// index): 8 ways 22.3 vs 21.8, 16 ways 26.6 vs 21.7, 32 ways 34.9 vs 21.9,
// 64 ways 55.1 vs 25.2. The two tie at 8 ways and the index wins from 16
// up, so sets of 8 ways or fewer scan and carry no index.
const scanWays = 8

// fibHash is 2^64 divided by the golden ratio, the multiplier of
// Fibonacci hashing: the top bits of tag*fibHash spread consecutive tags
// evenly over a power-of-two index.
const fibHash = 0x9E3779B97F4A7C15

// noSlot marks an empty LRU link or an empty index cell.
const noSlot int32 = -1

// setState is the per-set part of a table: the LRU list's ends, the depth
// of the set's free-slot stack and, for scanned sets, the occupancy mask.
type setState struct {
	valid uint64 // bit j: the set's slot j is occupied (scanned sets only)
	head  int32  // most recently used slot, noSlot when empty
	tail  int32  // least recently used slot, noSlot when empty
	nfree int32
}

// table is the replacement machinery of one TLB: true-LRU sets of ways
// slots each, struct-of-arrays and flat across sets. Slot j of set i is
// the global slot g = i*ways+j; tags, prev, next and the caller's payload
// array are all indexed by g, and the LRU links hold global slots. Set i's
// free slots are a stack in free[i*ways : i*ways+nfree]. A set of at most
// scanWays ways finds a tag by scanning its tags, with valid marking the
// occupied slots, so a free slot's stale tag never matches and every
// 64-bit tag is usable. A wider set owns a region of idx: an
// open-addressed index of 1<<ibits cells, at least twice the ways, with
// Fibonacci hashing and linear probing. The index holds only occupied
// slots and deletes by backward shift, so it never accumulates tombstones
// and never rehashes. A free slot's tag and payload are stale and never
// read.
type table struct {
	ways  int32
	mask  uint64 // sets-1: a key's set is key&mask
	ibits uint8  // log2 of a wide set's index size; 0 for scanned sets
	sets  []setState
	tags  []uint64
	prev  []int32
	next  []int32
	free  []int32
	idx   []int32 // wide sets only: set i's cells are idx[i<<ibits : (i+1)<<ibits]

	// absent remembers the last tag lookup failed to find, so the claim
	// that follows a missed lookup — every TLB fill — does not probe the
	// set again. Only claim adds tags, so only claim forgets it.
	absent struct {
		set int32
		tag uint64
		ok  bool
	}
}

func newTable(numSets, ways int) table {
	n := numSets * ways
	t := table{
		ways: int32(ways),
		mask: uint64(numSets - 1),
		sets: make([]setState, numSets),
		tags: make([]uint64, n),
		prev: make([]int32, n),
		next: make([]int32, n),
		free: make([]int32, n),
	}
	if ways > scanWays {
		for 1<<t.ibits < 2*ways {
			t.ibits++
		}
		t.idx = make([]int32, numSets<<t.ibits)
	}
	t.clear()
	return t
}

// setOf is the set a key indexes: its low bits. The number of sets is a
// power of two (Geometry.Validate).
func (t *table) setOf(key uint64) int32 { return int32(key & t.mask) }

// lookup returns the global slot holding tag in set si without touching
// recency. It is the probe half of every TLB lookup: a narrow set scans
// its tags, a wide set probes its index.
func (t *table) lookup(si int32, tag uint64) (int32, bool) {
	if t.idx != nil {
		if g, ok := t.find(si, tag); ok {
			return g, true
		}
	} else {
		base := si * t.ways
		valid := t.sets[si].valid
		for j, x := range t.tags[base : base+t.ways] {
			if x == tag && valid&(1<<uint(j)) != 0 {
				return base + int32(j), true
			}
		}
	}
	t.absent.set, t.absent.tag, t.absent.ok = si, tag, true
	return noSlot, false
}

// home is tag's first probe cell within a wide set's index.
func (t *table) home(tag uint64) int32 { return int32((tag * fibHash) >> (64 - t.ibits)) }

// cells is set si's region of the index.
func (t *table) cells(si int32) []int32 {
	lo := int(si) << t.ibits
	return t.idx[lo : lo+1<<t.ibits]
}

// find probes a wide set's index for tag. Probing stops at the first
// empty cell; the index is at most half full, so one always exists.
func (t *table) find(si int32, tag uint64) (int32, bool) {
	cells := t.cells(si)
	mask := int32(len(cells) - 1)
	for h := t.home(tag); ; h = (h + 1) & mask {
		g := cells[h]
		if g == noSlot {
			return noSlot, false
		}
		if t.tags[g] == tag {
			return g, true
		}
	}
}

// index adds slot g, whose tag is already in tags[g], to set si's index.
func (t *table) index(si int32, g int32) {
	cells := t.cells(si)
	mask := int32(len(cells) - 1)
	h := t.home(t.tags[g])
	for cells[h] != noSlot {
		h = (h + 1) & mask
	}
	cells[h] = g
}

// unindex removes slot g from set si's index by backward shift: each later
// entry of the probe run moves into the hole unless its home lies
// cyclically after the hole, so every remaining tag stays reachable from
// its home without tombstones. tags[g] must still hold g's tag.
func (t *table) unindex(si int32, g int32) {
	cells := t.cells(si)
	mask := int32(len(cells) - 1)
	i := t.home(t.tags[g])
	for cells[i] != g {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; cells[j] != noSlot; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if its probe from
		// home passes i on the way to j.
		if k := t.home(t.tags[cells[j]]); (j-k)&mask >= (j-i)&mask {
			cells[i], i = cells[j], j
		}
	}
	cells[i] = noSlot
}

// touch promotes slot g of set si to MRU. The head comparison is the hit
// fast path (repeated lookups of the same tag do no list surgery); only a
// genuine reordering pays the promote call.
func (t *table) touch(si int32, g int32) {
	if t.sets[si].head != g {
		t.promote(&t.sets[si], g)
	}
}

func (t *table) unlink(s *setState, g int32) {
	p, n := t.prev[g], t.next[g]
	if p >= 0 {
		t.next[p] = n
	} else {
		s.head = n
	}
	if n >= 0 {
		t.prev[n] = p
	} else {
		s.tail = p
	}
}

func (t *table) pushFront(s *setState, g int32) {
	t.prev[g] = noSlot
	t.next[g] = s.head
	if s.head >= 0 {
		t.prev[s.head] = g
	}
	s.head = g
	if s.tail < 0 {
		s.tail = g
	}
}

func (t *table) promote(s *setState, g int32) {
	t.unlink(s, g)
	t.pushFront(s, g)
}

// claim makes tag set si's MRU entry and returns its global slot for the
// caller to fill the payload in place: tag's own slot if present, else a
// free slot, else the LRU entry's, which is evicted. It reports whether an
// eviction happened. claim is the one fill path of every TLB kind.
func (t *table) claim(si int32, tag uint64) (g int32, evicted bool) {
	s := &t.sets[si]
	if known := t.absent; !known.ok || known.set != si || known.tag != tag {
		if g, ok := t.lookup(si, tag); ok {
			if s.head != g {
				t.promote(s, g)
			}
			return g, false
		}
	}
	t.absent.ok = false
	if s.nfree > 0 {
		s.nfree--
		g = t.free[si*t.ways+s.nfree]
	} else {
		g, evicted = s.tail, true
		if t.idx != nil {
			t.unindex(si, g)
		}
		t.unlink(s, g)
	}
	t.tags[g] = tag
	if t.idx != nil {
		t.index(si, g)
	} else {
		s.valid |= 1 << uint(g-si*t.ways)
	}
	t.pushFront(s, g)
	return g, evicted
}

// remove frees slot g of set si. The recency order of the remaining
// entries is unaffected, and the payload is left as it is: claim hands
// the slot back for overwriting.
func (t *table) remove(si int32, g int32) {
	s := &t.sets[si]
	base := si * t.ways
	if t.idx != nil {
		t.unindex(si, g)
	} else {
		s.valid &^= 1 << uint(g-base)
	}
	t.unlink(s, g)
	t.free[base+s.nfree] = g
	s.nfree++
}

// invalidate removes tag from set si, reporting whether it was present.
func (t *table) invalidate(si int32, tag uint64) bool {
	g, ok := t.lookup(si, tag)
	if ok {
		t.remove(si, g)
	}
	return ok
}

// len is the number of valid entries across all sets.
func (t *table) len() int {
	n := 0
	for _, s := range t.sets {
		n += int(t.ways - s.nfree)
	}
	return n
}

// each calls fn for every valid entry, set by set in slot order, without
// touching recency. Slot order depends only on the table's operation
// history, so two identical runs visit entries identically.
func (t *table) each(fn func(tag uint64, g int32)) {
	for si := range int32(len(t.sets)) {
		for g := si * t.ways; g < (si+1)*t.ways; g++ {
			if t.occupied(si, g) {
				fn(t.tags[g], g)
			}
		}
	}
}

// occupied reports whether slot g of set si holds a valid entry.
func (t *table) occupied(si int32, g int32) bool {
	if t.idx == nil {
		return t.sets[si].valid&(1<<uint(g-si*t.ways)) != 0
	}
	h, ok := t.find(si, t.tags[g])
	return ok && h == g
}

// clear invalidates every entry. Each set's free stack is refilled so
// that slot 0 is claimed first.
func (t *table) clear() {
	for i := range t.idx {
		t.idx[i] = noSlot
	}
	for si := range int32(len(t.sets)) {
		base := si * t.ways
		for j := int32(0); j < t.ways; j++ {
			t.free[base+j] = base + t.ways - 1 - j
		}
		t.sets[si] = setState{head: noSlot, tail: noSlot, nfree: t.ways}
	}
}

// Geometry describes a TLB's size and associativity.
type Geometry struct {
	// Entries is the total entry count (1024 in Table 1a).
	Entries int
	// Ways is the set associativity; Ways == Entries means fully
	// associative, 1 means direct-mapped.
	Ways int
}

// Validate checks size/associativity consistency; Sets() must be a power of
// two because the index is taken from the low tag bits.
func (g Geometry) Validate() error {
	if g.Entries <= 0 || g.Ways <= 0 {
		return fmt.Errorf("tlb: entries %d and ways %d must be positive", g.Entries, g.Ways)
	}
	if g.Entries%g.Ways != 0 {
		return fmt.Errorf("tlb: entries %d not divisible by ways %d", g.Entries, g.Ways)
	}
	sets := g.Entries / g.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb: set count %d is not a power of two", sets)
	}
	return nil
}

// Sets is the number of associativity sets.
func (g Geometry) Sets() int { return g.Entries / g.Ways }

// String renders the geometry like the paper's figure labels.
func (g Geometry) String() string {
	switch {
	case g.Ways == 1:
		return fmt.Sprintf("%d-entry direct-mapped", g.Entries)
	case g.Ways == g.Entries:
		return fmt.Sprintf("%d-entry fully-associative", g.Entries)
	default:
		return fmt.Sprintf("%d-entry %d-way", g.Entries, g.Ways)
	}
}

// Stats counts TLB events.
type Stats struct {
	// Hits and Misses partition lookups.
	Hits, Misses uint64
	// EntryMisses are misses where no entry matched the tag; SubMisses
	// (mosaic only) are misses where the entry was present but the
	// sub-page's CPFN was invalid. EntryMisses + SubMisses == Misses.
	EntryMisses, SubMisses uint64
	// Evictions counts capacity replacements.
	Evictions uint64
}

// Lookups is Hits + Misses.
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses }

// MissRate is Misses / Lookups (zero when idle).
func (s Stats) MissRate() float64 {
	if l := s.Lookups(); l > 0 {
		return float64(s.Misses) / float64(l)
	}
	return 0
}
