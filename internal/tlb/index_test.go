package tlb

import (
	"math/rand"
	"testing"
)

// The open-addressed index of a wide set against a Go map. Keys are minted
// with a chosen home cell, so the fuzzer can pile them into one probe
// cluster that straddles the end of the index, where backward-shift
// deletion has to wrap: a shift that stops early, or moves an entry past
// its home, leaves a key unreachable, and the map notices.

// indexWays is a set wide enough to be indexed: 64 slots over 128 cells.
const indexWays = 64

// fibInverse is fibHash's multiplicative inverse mod 2^64 (fibHash is odd),
// found by Newton's iteration; each step doubles the correct low bits.
func fibInverse() uint64 {
	inv := uint64(fibHash)
	for i := 0; i < 6; i++ {
		inv *= 2 - fibHash*inv
	}
	return inv
}

// indexRun is one wide set driven through index/unindex/find with the
// reference map beside it.
type indexRun struct {
	t     testing.TB
	tab   table
	inv   uint64
	model map[uint64]int32 // key → slot
	free  []int32
}

func newIndexRun(t testing.TB) *indexRun {
	r := &indexRun{t: t, tab: newTable(1, indexWays), inv: fibInverse(), model: map[uint64]int32{}}
	if r.tab.idx == nil {
		t.Fatalf("a %d-way set must be indexed (scanWays %d)", indexWays, scanWays)
	}
	for g := int32(indexWays - 1); g >= 0; g-- {
		r.free = append(r.free, g)
	}
	return r
}

// key mints a key whose home cell is chosen by pos: with pos's top bit
// clear, one of the 16 cells around the index's wrap-around (the last 8
// and the first 8); with it set, any cell. salt tells keys with one home
// apart.
func (r *indexRun) key(pos, salt byte) uint64 {
	cells := uint64(1) << r.tab.ibits
	home := (cells - 8 + uint64(pos&15)) & (cells - 1)
	if pos&0x80 != 0 {
		home = uint64(pos) & (cells - 1)
	}
	k := (home<<(64-r.tab.ibits) | uint64(salt)) * r.inv
	if got := uint64(r.tab.home(k)); got != home {
		r.t.Fatalf("minted key %#x homes at %d, want %d", k, got, home)
	}
	return k
}

func (r *indexRun) step(op, pos, salt byte) {
	k := r.key(pos, salt)
	g, present := r.model[k]
	switch op % 3 {
	case 0: // put
		if present || len(r.free) == 0 {
			return
		}
		g = r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
		r.tab.tags[g] = k
		r.tab.index(0, g)
		r.model[k] = g
	case 1: // delete
		if !present {
			return
		}
		r.tab.unindex(0, g)
		delete(r.model, k)
		r.free = append(r.free, g)
	case 2: // get
		got, ok := r.tab.find(0, k)
		if ok != present || (ok && got != g) {
			r.t.Fatalf("find(%#x) = %d, %v; map says %d, %v", k, got, ok, g, present)
		}
	}
	r.check()
}

// check requires every mapped key to be found at its slot and the index to
// hold exactly the mapped slots.
func (r *indexRun) check() {
	for k, g := range r.model {
		if got, ok := r.tab.find(0, k); !ok || got != g {
			r.t.Fatalf("find(%#x) = %d, %v after %d live keys; want slot %d", k, got, ok, len(r.model), g)
		}
	}
	used := 0
	for _, c := range r.tab.cells(0) {
		if c != noSlot {
			used++
		}
	}
	if used != len(r.model) {
		r.t.Fatalf("index holds %d cells, map %d keys", used, len(r.model))
	}
}

func runIndex(t testing.TB, prog []byte) {
	r := newIndexRun(t)
	for i := 0; i+3 <= len(prog); i += 3 {
		r.step(prog[i], prog[i+1], prog[i+2])
	}
}

// TestTableIndexAgainstMap runs long random programs: one confined to the
// wrap-around cluster until the set is full, then churning, and one mixed
// with keys homed anywhere.
func TestTableIndexAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, positions := range []int{16, 256} {
		prog := make([]byte, 3*20000)
		for i := 0; i < len(prog); i += 3 {
			prog[i] = byte(rng.Intn(3))
			prog[i+1] = byte(rng.Intn(positions))
			prog[i+2] = byte(rng.Intn(8))
		}
		runIndex(t, prog)
	}
}

// FuzzTableIndex: each op is three bytes — operation (put, delete, get),
// home position, salt.
func FuzzTableIndex(f *testing.F) {
	f.Add([]byte{0, 15, 0, 0, 15, 1, 0, 0, 0, 0, 8, 0, 1, 15, 0, 2, 15, 1, 2, 0, 0})
	f.Add([]byte{0, 7, 0, 0, 7, 1, 0, 8, 0, 1, 7, 0, 2, 7, 1, 2, 8, 0})
	f.Add([]byte{0, 0x85, 3, 0, 0x86, 3, 0, 0x85, 4, 1, 0x85, 3, 2, 0x85, 4})
	f.Fuzz(func(t *testing.T, prog []byte) { runIndex(t, prog) })
}
