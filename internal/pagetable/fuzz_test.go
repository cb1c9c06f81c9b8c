package pagetable

import (
	"testing"

	"mosaic/internal/core"
)

// FuzzPageTableMapWalk maps an arbitrary VPN sequence into a vanilla and
// an arity-8 mosaic table, checking after every operation, against a Go
// map oracle of the leaf nodes mapped so far, that a walk reaches a leaf
// entry exactly when its leaf node exists, touches one entry per level
// when it does, keeps every entry address it reported before, and never
// hands one entry address to two leaf entries. VPNs span 24 bits so the
// fuzzer exercises shared interior nodes and node allocation.
func FuzzPageTableMapWalk(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xff, 0x80})
	f.Add([]byte("map then unmap the same neighbourhood \x00\x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		alloc := BumpAllocator(0)
		tables := []*Table{NewVanilla(alloc), NewMosaic(8, alloc)}
		type leafKey struct {
			table int
			key   uint64
		}
		leafNodes := make(map[leafKey]bool) // leaf-node index of every mapped key
		entries := make(map[leafKey]uint64) // leaf entry address of every walked key
		owner := make(map[uint64]leafKey)   // which key each leaf entry address serves
		var path []uint64

		for i := 0; i+3 < len(data); i += 4 {
			vpn := core.VPN(uint64(data[i+1]) | uint64(data[i+2])<<8 | uint64(data[i+3])<<16)
			if data[i]%2 == 0 {
				// Probe a key near a previous operand to hit both mapped
				// and unmapped leaf nodes.
				vpn ^= core.VPN(data[i])
			} else {
				for ti, pt := range tables {
					pt.Map(vpn)
					leafNodes[leafKey{ti, uint64(vpn) / uint64(pt.Arity()) >> 9}] = true
				}
			}
			for ti, pt := range tables {
				key := uint64(vpn) / uint64(pt.Arity())
				want := leafNodes[leafKey{ti, key >> 9}]
				var ok bool
				path, ok = pt.Walk(vpn, path[:0])
				if ok != want {
					t.Fatalf("table %d: Walk(%#x) reached a leaf = %v, oracle %v", ti, vpn, ok, want)
				}
				if !ok {
					continue
				}
				if len(path) != Levels {
					t.Fatalf("table %d: Walk(%#x) touched %d entries, want one per level (%d)", ti, vpn, len(path), Levels)
				}
				k, leaf := leafKey{ti, key}, path[len(path)-1]
				if old, seen := entries[k]; seen && old != leaf {
					t.Fatalf("table %d: key %#x leaf entry moved from %#x to %#x", ti, key, old, leaf)
				}
				if o, seen := owner[leaf]; seen && o != k {
					t.Fatalf("table %d: key %#x shares leaf entry %#x with %+v", ti, key, leaf, o)
				}
				entries[k], owner[leaf] = leaf, k
			}
		}
	})
}
