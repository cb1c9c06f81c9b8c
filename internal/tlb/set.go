// Package tlb implements the set-associative TLB models of §3.1: a
// conventional ("vanilla") TLB mapping VPNs to PFNs, and a mosaic TLB
// mapping MVPNs to tables of contents (ToCs) of compressed physical frame
// numbers. Both share the same cache geometry machinery so that, as in the
// paper's gem5 model, the two designs differ only in what an entry stores.
package tlb

import "fmt"

// scanWays is the widest set that finds a tag by scanning its contiguous
// tags slice; wider sets keep a tag→slot map. BenchmarkVanillaLookupHit
// puts the crossover here: on an x86-64 host (Go 1.24) the scan beats the
// map at 8 and 16 ways and loses from 32 ways up. At the default
// geometries only the fully-associative point keeps a map.
const scanWays = 16

// set is one associativity set with true-LRU replacement, generic over the
// entry payload. Slots 0..ways-1 are chained into an LRU list. A set of at
// most scanWays ways finds a tag by scanning tags, with valid marking the
// occupied slots; a wider set keeps index, a tag→slot map, so
// fully-associative configurations stay O(1). A free slot's tag and
// payload are stale and never read.
type set[P any] struct {
	index   map[uint64]int32 // wider than scanWays only; nil otherwise
	valid   uint64           // bit i: slot i is occupied (scan sets only; scanWays ≤ 64)
	tags    []uint64
	payload []P
	prev    []int32
	next    []int32
	free    []int32
	head    int32 // most recently used
	tail    int32 // least recently used
}

func newSet[P any](ways int) *set[P] {
	sets := newSets[P](1, ways)
	return &sets[0]
}

// newSets builds all of a TLB's sets at once, carving every per-slot array
// out of one shared backing allocation per field. The per-set state is
// struct-of-arrays and contiguous across sets — tags with tags, payloads
// with payloads — so a probe touches a handful of adjacent cache lines
// instead of chasing a heap pointer per set, and a whole TLB costs five
// slice allocations (plus a tag index per set wider than scanWays) rather
// than six per set. Each set's slices are full-capacity subslices
// (three-index), so the in-place append in invalidate/clear can never
// write into a neighbour.
func newSets[P any](numSets, ways int) []set[P] {
	n := numSets * ways
	var (
		tags    = make([]uint64, n)
		payload = make([]P, n)
		prev    = make([]int32, n)
		next    = make([]int32, n)
		free    = make([]int32, n)
	)
	sets := make([]set[P], numSets)
	for i := range sets {
		lo, hi := i*ways, (i+1)*ways
		s := &sets[i]
		if ways > scanWays {
			s.index = make(map[uint64]int32, ways)
		}
		s.tags = tags[lo:hi:hi]
		s.payload = payload[lo:hi:hi]
		s.prev = prev[lo:hi:hi]
		s.next = next[lo:hi:hi]
		s.free = free[lo:lo:hi]
		for j := ways - 1; j >= 0; j-- {
			s.free = append(s.free, int32(j))
		}
		s.head, s.tail = -1, -1
	}
	return sets
}

// lookup returns the slot holding tag without touching recency. It is the
// probe half of get: a narrow set scans its tags (a free slot's stale tag
// fails the valid test), a wide set reads its map. It stays under the
// inlining budget so the whole TLB probe flattens into Lookup.
func (s *set[P]) lookup(tag uint64) (int32, bool) {
	if s.index != nil {
		i, ok := s.index[tag]
		return i, ok
	}
	for i, t := range s.tags {
		if t == tag && s.valid&(1<<uint(i)) != 0 {
			return int32(i), true
		}
	}
	return -1, false
}

// touch promotes slot i to MRU. The head comparison is the hit fast path
// (repeated lookups of the same tag do no list surgery); only a genuine
// reordering pays the promote call. touch stays under the inlining budget
// precisely because the slow path is a call.
func (s *set[P]) touch(i int32) {
	if s.head != i {
		s.promote(i)
	}
}

// get returns a pointer to the payload for tag, promoting it to MRU.
func (s *set[P]) get(tag uint64) (*P, bool) {
	i, ok := s.lookup(tag)
	if !ok {
		return nil, false
	}
	s.touch(i)
	return &s.payload[i], true
}

// peek returns the payload without touching recency.
func (s *set[P]) peek(tag uint64) (*P, bool) {
	i, ok := s.lookup(tag)
	if !ok {
		return nil, false
	}
	return &s.payload[i], true
}

func (s *set[P]) unlink(i int32) {
	if s.prev[i] >= 0 {
		s.next[s.prev[i]] = s.next[i]
	} else {
		s.head = s.next[i]
	}
	if s.next[i] >= 0 {
		s.prev[s.next[i]] = s.prev[i]
	} else {
		s.tail = s.prev[i]
	}
}

func (s *set[P]) pushFront(i int32) {
	s.prev[i] = -1
	s.next[i] = s.head
	if s.head >= 0 {
		s.prev[s.head] = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
}

func (s *set[P]) promote(i int32) {
	if s.head == i {
		return
	}
	s.unlink(i)
	s.pushFront(i)
}

// claim makes tag the set's MRU entry and returns its payload slot for the
// caller to fill in place: tag's own slot if present, else a free slot,
// else the LRU entry's, which is evicted. It reports whether an eviction
// happened. claim is the one fill path of every TLB kind.
func (s *set[P]) claim(tag uint64) (p *P, evicted bool) {
	if i, ok := s.lookup(tag); ok {
		s.promote(i)
		return &s.payload[i], false
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot, evicted = s.tail, true
		if s.index != nil {
			delete(s.index, s.tags[slot])
		}
		s.unlink(slot)
	}
	s.tags[slot] = tag
	if s.index != nil {
		s.index[tag] = slot
	} else {
		s.valid |= 1 << uint(slot)
	}
	s.pushFront(slot)
	return &s.payload[slot], evicted
}

// invalidate removes tag from the set, reporting whether it was present.
// The recency order of the remaining entries is unaffected. The freed
// slot's payload is left as it is: claim hands it back for overwriting.
func (s *set[P]) invalidate(tag uint64) bool {
	i, ok := s.lookup(tag)
	if !ok {
		return false
	}
	if s.index != nil {
		delete(s.index, tag)
	} else {
		s.valid &^= 1 << uint(i)
	}
	s.unlink(i)
	s.free = append(s.free, i)
	return true
}

// len is the number of valid entries in the set.
func (s *set[P]) len() int { return len(s.tags) - len(s.free) }

// occupied reports whether slot i holds a valid entry.
func (s *set[P]) occupied(i int32) bool {
	if s.index == nil {
		return s.valid&(1<<uint(i)) != 0
	}
	j, ok := s.index[s.tags[i]]
	return ok && j == i
}

// each calls fn for every valid entry in slot order, without touching
// recency. Slot order depends only on the set's operation history, so two
// identical runs visit entries identically.
func (s *set[P]) each(fn func(tag uint64, p *P)) {
	for i := range s.tags {
		if s.occupied(int32(i)) {
			fn(s.tags[i], &s.payload[i])
		}
	}
}

// clear invalidates every entry in the set.
func (s *set[P]) clear() {
	clear(s.index)
	s.valid = 0
	s.free = s.free[:0]
	for i := len(s.tags) - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	s.head, s.tail = -1, -1
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
