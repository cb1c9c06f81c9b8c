package tlb

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mosaic/internal/core"
)

// The differential oracle drives Vanilla, Mosaic and Coalesced with one
// operation sequence and replays it against a naive model: per set, a
// slice of entries in MRU-first order, searched linearly. The model shares
// no code with table, so a slot-reuse, scan, index or arena bug in the
// optimized sets shows up as a divergence in hits, misses, evictions or
// contents.

// oracleWays spans both sides of the scanWays cut.
var oracleWays = []int{1, 2, 4, 8, 16, 32, 256}

// oracleGeometry gives narrow TLBs four sets and the widest a single
// fully-associative set.
func oracleGeometry(ways int) Geometry {
	if ways >= 256 {
		return Geometry{Entries: ways, Ways: ways}
	}
	return Geometry{Entries: 4 * ways, Ways: ways}
}

type modelEntry[P any] struct {
	tag uint64
	p   P
}

// lruModel is the reference: sets[i] lists set i's entries, MRU first.
type lruModel[P any] struct {
	sets [][]modelEntry[P]
	ways int
}

func newLRUModel[P any](g Geometry) *lruModel[P] {
	return &lruModel[P]{sets: make([][]modelEntry[P], g.Sets()), ways: g.Ways}
}

func (m *lruModel[P]) find(si int, tag uint64) int {
	for i, e := range m.sets[si] {
		if e.tag == tag {
			return i
		}
	}
	return -1
}

// get promotes tag to MRU and returns its payload.
func (m *lruModel[P]) get(si int, tag uint64) (*P, bool) {
	i := m.find(si, tag)
	if i < 0 {
		return nil, false
	}
	s := m.sets[si]
	e := s[i]
	copy(s[1:i+1], s[:i])
	s[0] = e
	return &s[0].p, true
}

// peek returns tag's payload without promoting it.
func (m *lruModel[P]) peek(si int, tag uint64) (*P, bool) {
	if i := m.find(si, tag); i >= 0 {
		return &m.sets[si][i].p, true
	}
	return nil, false
}

// put installs tag as MRU with payload p, reporting an LRU eviction.
func (m *lruModel[P]) put(si int, tag uint64, p P) (evicted bool) {
	m.drop(si, tag)
	s := m.sets[si]
	if len(s) == m.ways {
		s, evicted = s[:len(s)-1], true
	}
	m.sets[si] = append([]modelEntry[P]{{tag, p}}, s...)
	return evicted
}

func (m *lruModel[P]) drop(si int, tag uint64) bool {
	i := m.find(si, tag)
	if i < 0 {
		return false
	}
	m.sets[si] = append(m.sets[si][:i], m.sets[si][i+1:]...)
	return true
}

func (m *lruModel[P]) flush() {
	for i := range m.sets {
		m.sets[i] = nil
	}
}

func (m *lruModel[P]) len() int {
	n := 0
	for _, s := range m.sets {
		n += len(s)
	}
	return n
}

// oracleRun is one TLB of each kind plus its model and expected counters.
type oracleRun struct {
	t     testing.TB
	geom  Geometry
	arity int
	run   int // Coalesced MaxRun
	span  uint64

	van      *Vanilla
	vanModel *lruModel[core.PFN]
	vanStats Stats

	mos      *Mosaic
	mosModel *lruModel[ToC]
	mosStats Stats

	col      *Coalesced
	colModel *lruModel[coalescedEntry]
	colStats Stats
}

func newOracleRun(t testing.TB, ways int) *oracleRun {
	g := oracleGeometry(ways)
	const arity, run = 4, 4
	return &oracleRun{
		t: t, geom: g, arity: arity, run: run,
		span: uint64(g.Entries * arity * 3),
		van:  NewVanilla(g), vanModel: newLRUModel[core.PFN](g),
		mos: NewMosaic(g, arity), mosModel: newLRUModel[ToC](g),
		col: NewCoalesced(g, run), colModel: newLRUModel[coalescedEntry](g),
	}
}

func (o *oracleRun) setOf(tag uint64) int { return int(tag & uint64(o.geom.Sets()-1)) }

// vpnFrom decodes a VPN: mostly a small span so sets fill and evict, and
// occasionally one far above it (tags near the top of the 64-bit space).
func (o *oracleRun) vpnFrom(hi, lo byte) core.VPN {
	v := uint64(hi)<<8 | uint64(lo)
	if hi == 0xFF {
		return core.VPN(^uint64(0) - uint64(lo))
	}
	return core.VPN(v % o.span)
}

// step applies one decoded operation to all three TLBs and their models.
func (o *oracleRun) step(op, hi, lo, val byte) {
	vpn := o.vpnFrom(hi, lo)
	switch op % 16 {
	case 0, 1, 2, 3, 4, 5:
		o.lookup(vpn)
	case 6, 7, 8, 9, 10:
		o.insert(vpn, val)
	case 11, 12:
		o.invalidate(vpn)
	case 13:
		o.invalidateEntry(vpn)
	case 14:
		o.lookup(vpn)
		o.insert(vpn, val)
	case 15:
		if val%8 == 0 {
			o.flush()
		} else {
			o.lookup(vpn)
		}
	}
}

func (o *oracleRun) lookup(vpn core.VPN) {
	// Vanilla.
	pfn, hit := o.van.Lookup(vpn)
	want, ok := o.vanModel.get(o.setOf(uint64(vpn)), uint64(vpn))
	if hit != ok || (ok && pfn != *want) {
		o.t.Fatalf("Vanilla.Lookup(%#x) = %d,%v; model %v", vpn, pfn, hit, ok)
	}
	countLookup(&o.vanStats, ok, ok)

	// Mosaic.
	mvpn, off := core.MosaicPage(vpn, o.arity)
	c, hit := o.mos.Lookup(vpn)
	toc, present := o.mosModel.get(o.setOf(uint64(mvpn)), uint64(mvpn))
	valid := present && (*toc)[off] != core.CPFNInvalid
	if hit != valid || (valid && c != (*toc)[off]) {
		o.t.Fatalf("Mosaic.Lookup(%#x) = %d,%v; model present=%v", vpn, c, hit, present)
	}
	countLookup(&o.mosStats, present, valid)

	// Coalesced.
	base, coff := o.col.group(vpn)
	pfn, hit = o.col.Lookup(vpn)
	e, present := o.colModel.get(o.colSet(base), uint64(base))
	valid = present && e.valid&(1<<uint(coff)) != 0
	if hit != valid || (valid && pfn != e.basePFN.Add(uint64(coff))) {
		o.t.Fatalf("Coalesced.Lookup(%#x) = %d,%v; model present=%v", vpn, pfn, hit, present)
	}
	countLookup(&o.colStats, present, valid)
}

func countLookup(s *Stats, present, hit bool) {
	switch {
	case hit:
		s.Hits++
	case present:
		s.Misses++
		s.SubMisses++
	default:
		s.Misses++
		s.EntryMisses++
	}
}

func (o *oracleRun) colSet(base core.VPN) int {
	return int((uint64(base) / uint64(o.run)) & uint64(o.geom.Sets()-1))
}

func (o *oracleRun) insert(vpn core.VPN, val byte) {
	pfn := core.PFN(1000 + uint64(val)*7)
	o.van.Insert(vpn, pfn)
	if o.vanModel.put(o.setOf(uint64(vpn)), uint64(vpn), pfn) {
		o.vanStats.Evictions++
	}

	// A ToC with a value-dependent mix of valid and invalid sub-pages;
	// the caller's slice is scribbled on afterwards, which must not leak.
	toc := make(ToC, o.arity)
	for i := range toc {
		if (int(val)>>i)&1 == 0 {
			toc[i] = core.CPFNInvalid
		} else {
			toc[i] = core.CPFN((int(val) + i) % 100)
		}
	}
	mvpn, _ := core.MosaicPage(vpn, o.arity)
	o.mos.Insert(vpn, toc)
	if o.mosModel.put(o.setOf(uint64(mvpn)), uint64(mvpn), append(ToC(nil), toc...)) {
		o.mosStats.Evictions++
	}
	for i := range toc {
		toc[i] = 0x55
	}

	// Neighbours contiguous with pfn where val's bits say so.
	base, off := o.col.group(vpn)
	nb := make([]NeighbourPFN, o.run)
	for i := range nb {
		switch {
		case i == off:
			nb[i] = NeighbourPFN{PFN: pfn, OK: true}
		case (int(val)>>(i+4))&1 == 1:
			nb[i] = NeighbourPFN{PFN: pfn.Sub(uint64(off)).Add(uint64(i)), OK: true}
		default:
			nb[i] = NeighbourPFN{PFN: pfn + 500, OK: i%2 == 0}
		}
	}
	o.col.Insert(vpn, pfn, nb)
	e := coalescedEntry{baseVPN: base, basePFN: pfn.Sub(uint64(off)), valid: 1 << uint(off)}
	for i, n := range nb {
		if i != off && n.OK && n.PFN == e.basePFN.Add(uint64(i)) {
			e.valid |= 1 << uint(i)
		}
	}
	if o.colModel.put(o.colSet(base), uint64(base), e) {
		o.colStats.Evictions++
	}
}

func (o *oracleRun) invalidate(vpn core.VPN) {
	if got, want := o.van.Invalidate(vpn), o.vanModel.drop(o.setOf(uint64(vpn)), uint64(vpn)); got != want {
		o.t.Fatalf("Vanilla.Invalidate(%#x) = %v, model %v", vpn, got, want)
	}

	mvpn, off := core.MosaicPage(vpn, o.arity)
	want := false
	if toc, ok := o.mosModel.peek(o.setOf(uint64(mvpn)), uint64(mvpn)); ok && (*toc)[off] != core.CPFNInvalid {
		(*toc)[off] = core.CPFNInvalid
		want = true
	}
	if got := o.mos.InvalidateSub(vpn); got != want {
		o.t.Fatalf("Mosaic.InvalidateSub(%#x) = %v, model %v", vpn, got, want)
	}

	base, coff := o.col.group(vpn)
	want = false
	if e, ok := o.colModel.peek(o.colSet(base), uint64(base)); ok && e.valid&(1<<uint(coff)) != 0 {
		e.valid &^= 1 << uint(coff)
		if e.valid == 0 {
			o.colModel.drop(o.colSet(base), uint64(base))
		}
		want = true
	}
	if got := o.col.Invalidate(vpn); got != want {
		o.t.Fatalf("Coalesced.Invalidate(%#x) = %v, model %v", vpn, got, want)
	}
}

func (o *oracleRun) invalidateEntry(vpn core.VPN) {
	mvpn, _ := core.MosaicPage(vpn, o.arity)
	if got, want := o.mos.InvalidateEntry(vpn), o.mosModel.drop(o.setOf(uint64(mvpn)), uint64(mvpn)); got != want {
		o.t.Fatalf("Mosaic.InvalidateEntry(%#x) = %v, model %v", vpn, got, want)
	}
}

func (o *oracleRun) flush() {
	o.van.Flush()
	o.vanModel.flush()
	o.mos.Flush()
	o.mosModel.flush()
	o.col.Flush()
	o.colModel.flush()
}

// check compares counters, lengths and full contents against the models.
func (o *oracleRun) check() {
	o.t.Helper()
	for _, c := range []struct {
		name      string
		got, want Stats
		len, mlen int
	}{
		{"Vanilla", o.van.Stats(), o.vanStats, o.van.Len(), o.vanModel.len()},
		{"Mosaic", o.mos.Stats(), o.mosStats, o.mos.Len(), o.mosModel.len()},
		{"Coalesced", o.col.Stats(), o.colStats, o.col.Len(), o.colModel.len()},
	} {
		if c.got != c.want {
			o.t.Fatalf("%s stats %+v, model %+v", c.name, c.got, c.want)
		}
		if c.len != c.mlen {
			o.t.Fatalf("%s Len %d, model %d", c.name, c.len, c.mlen)
		}
	}

	var got, want []string
	o.van.Range(func(key uint64, pfn core.PFN) { got = append(got, fmt.Sprintf("%#x:%d", key, pfn)) })
	for _, s := range o.vanModel.sets {
		for _, e := range s {
			want = append(want, fmt.Sprintf("%#x:%d", e.tag, e.p))
		}
	}
	o.compare("Vanilla", got, want)

	got, want = nil, nil
	o.mos.Range(func(key uint64, toc ToC) {
		if cap(toc) != o.arity {
			o.t.Fatalf("Mosaic entry %#x: ToC capacity %d reaches past its arity %d", key, cap(toc), o.arity)
		}
		got = append(got, fmt.Sprintf("%#x:%v", key, toc))
	})
	for _, s := range o.mosModel.sets {
		for _, e := range s {
			want = append(want, fmt.Sprintf("%#x:%v", e.tag, e.p))
		}
	}
	o.compare("Mosaic", got, want)
}

func (o *oracleRun) compare(name string, got, want []string) {
	o.t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		o.t.Fatalf("%s Range contents diverged:\n got  %v\n want %v", name, got, want)
	}
}

// runOracle decodes prog four bytes per operation and checks the TLBs
// against the model after every operation.
func runOracle(t testing.TB, ways int, prog []byte) {
	o := newOracleRun(t, ways)
	for len(prog) >= 4 {
		o.step(prog[0], prog[1], prog[2], prog[3])
		o.check()
		prog = prog[4:]
	}
}

func TestTLBOracle(t *testing.T) {
	for _, ways := range oracleWays {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ways)))
			prog := make([]byte, 4*3000)
			rng.Read(prog)
			// Pin tag 0 (VPN 0, MVPN 0, run base 0) into the stream.
			for i := 0; i < len(prog); i += 4 * 7 {
				prog[i+1], prog[i+2] = 0, 0
			}
			runOracle(t, ways, prog)
		})
	}
}

func FuzzTLBOracle(f *testing.F) {
	f.Add(byte(0), []byte{6, 0, 0, 1, 0, 0, 0, 0, 11, 0, 0, 0, 6, 0, 0, 3, 0, 0, 0, 0})
	f.Add(byte(3), []byte{6, 0, 1, 0xFF, 6, 0, 2, 0x0F, 13, 0, 1, 0, 6, 0, 1, 0xF0, 0, 0, 1, 0})
	f.Add(byte(6), []byte{6, 0xFF, 0, 9, 0, 0xFF, 0, 0, 11, 0xFF, 0, 0, 15, 0, 0, 8, 0, 0xFF, 0, 0})
	f.Fuzz(func(t *testing.T, w byte, prog []byte) {
		runOracle(t, oracleWays[int(w)%len(oracleWays)], prog)
	})
}

// TestMosaicReinsertAfterInvalidateSubKeepsOwnToC pins the ToC arena: an
// entry re-filled after a sub-page shootdown, or a slot reused by another
// MVPN, must show the ToC just written, never a neighbour's, and the
// rewrite must leave every other entry's ToC untouched.
func TestMosaicReinsertAfterInvalidateSubKeepsOwnToC(t *testing.T) {
	for _, ways := range oracleWays {
		g := oracleGeometry(ways)
		tm := NewMosaic(g, 4)
		gens := map[uint64]byte{}
		tocOf := func(m uint64) ToC {
			return ToC{core.CPFN(m % 50), core.CPFN(m%50 + 1), core.CPFN(gens[m]), core.CPFN(m%50 + 3)}
		}
		fill := func(m uint64, gen byte) {
			gens[m] = gen
			tm.Insert(core.VPN(4*m), tocOf(m))
		}
		n := uint64(g.Entries)
		for m := uint64(0); m < n; m++ {
			fill(m, 0)
		}
		for m := uint64(0); m < n; m += 3 {
			tm.InvalidateSub(core.VPN(4*m + 1))
			fill(m, 1)
		}
		for m := uint64(1); m < n; m += 3 {
			// Free m's slot and hand it to an MVPN of the same set.
			tm.InvalidateEntry(core.VPN(4 * m))
			delete(gens, m)
			fill(m+n, 2)
		}
		seen := 0
		tm.Range(func(key uint64, toc ToC) {
			seen++
			if want := tocOf(key); fmt.Sprint(toc) != fmt.Sprint(want) {
				t.Fatalf("ways=%d: MVPN %d shows ToC %v, want %v", ways, key, toc, want)
			}
		})
		if seen != len(gens) {
			t.Fatalf("ways=%d: Range visited %d entries, want %d", ways, seen, len(gens))
		}
	}
}
