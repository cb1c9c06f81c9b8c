package alloc

import (
	"errors"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/invariant"
	"mosaic/internal/xxhash"
)

// FuzzMemoryPlaceFree drives a four-bucket memory of the paper's geometry
// through an arbitrary place/free/touch/horizon sequence against a map
// oracle. Pages come from 512 (ASID, VPN) pairs over 256 frames, so the
// fuzzer reaches full frontyards, backyard spills, ghost reclaims and
// genuine conflicts. It checks the iceberg guarantees the simulator relies on:
// a page stays in the frame it was placed in until it is freed or
// reclaimed as a ghost, its CPFN decodes back to that frame, and
// ErrConflict means every candidate frame holds a live page.
//
// Each operation is two bytes: an opcode byte (low two bits select the
// operation, the top bit the ASID) and the VPN.
func FuzzMemoryPlaceFree(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 2, 0, 1})
	fill := make([]byte, 0, 1024)
	for i := 0; i < 512; i++ {
		fill = append(fill, byte(i>>1&0x80), byte(i))
	}
	f.Add(fill)
	churn := append([]byte(nil), fill...)
	for i := 0; i < 128; i++ {
		churn = append(churn, 2, byte(3*i), 3, byte(7*i), 0x80, byte(5*i))
	}
	f.Add(churn)
	// Touch every page in order, then walk the horizon up that order while
	// placing: each step leaves exactly one page on the horizon, the
	// boundary between ghost and live.
	boundary := append([]byte(nil), fill...)
	for i := 0; i < 512; i++ {
		boundary = append(boundary, byte(i>>1&0x80)|2, byte(i))
	}
	for i := 0; i < 256; i++ {
		boundary = append(boundary, 3, byte(i), 0x80, byte(i), 0x80, byte(255-i))
	}
	f.Add(boundary)

	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewMemory(4*core.DefaultGeometry.BucketSize(), core.DefaultGeometry, xxhash.NewPlacement(7))
		type home struct {
			pfn        core.PFN
			cpfn       core.CPFN
			lastAccess uint64
		}
		oracle := make(map[Owner]home)
		var now, horizon uint64

		audit := func() {
			t.Helper()
			var r invariant.Report
			m.CheckInvariants(&r)
			if !r.Check(m.Used() == len(oracle)) {
				r.Failf("fuzz.used",
					"Used %d, oracle holds %d pages", m.Used(), len(oracle))
			}
			for pg, h := range oracle {
				owner, last, _, used := m.FrameInfo(h.pfn)
				if !r.Check(used && owner == pg) {
					r.Failf("fuzz.stable-frame",
						"page %+v placed in frame %d, which now holds %+v (used=%v)", pg, h.pfn, owner, used)
				}
				if !r.Check(last == h.lastAccess) {
					r.Failf("fuzz.last-access",
						"page %+v last accessed at %d, frame says %d", pg, h.lastAccess, last)
				}
				if !r.Check(m.DecodeCPFN(pg.ASID, pg.VPN, h.cpfn) == h.pfn) {
					r.Failf("fuzz.cpfn-decode",
						"page %+v CPFN %d decodes to %d, not its frame %d", pg, h.cpfn, m.DecodeCPFN(pg.ASID, pg.VPN, h.cpfn), h.pfn)
				}
			}
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			now++
			op, arg := data[i], data[i+1]
			pg := Owner{ASID: core.ASID(1 + op>>7), VPN: core.VPN(arg)}
			h, present := oracle[pg]
			switch op & 3 {
			case 0:
				if present {
					continue
				}
				p, err := m.Place(pg.ASID, pg.VPN, now, horizon)
				if errors.Is(err, ErrConflict) {
					for _, c := range m.Candidates(pg.ASID, pg.VPN, nil) {
						if !c.Used || c.LastAccess < horizon {
							t.Fatalf("Place(%+v) conflicted with candidate %+v free or a ghost (horizon %d)", pg, c, horizon)
						}
					}
					continue
				}
				if err != nil {
					t.Fatalf("Place(%+v): %v", pg, err)
				}
				if got := m.DecodeCPFN(pg.ASID, pg.VPN, p.CPFN); got != p.PFN {
					t.Fatalf("Place(%+v) returned frame %d, but CPFN %d decodes to %d", pg, p.PFN, p.CPFN, got)
				}
				if p.Evicted != nil {
					old, ok := oracle[*p.Evicted]
					switch {
					case !ok:
						t.Fatalf("Place(%+v) reclaimed %+v, which is not resident", pg, *p.Evicted)
					case old.pfn != p.PFN:
						t.Fatalf("Place(%+v) into frame %d reclaimed %+v from frame %d", pg, p.PFN, *p.Evicted, old.pfn)
					case old.lastAccess >= horizon:
						t.Fatalf("Place(%+v) reclaimed live page %+v (last access %d, horizon %d)", pg, *p.Evicted, old.lastAccess, horizon)
					}
					delete(oracle, *p.Evicted)
				}
				oracle[pg] = home{pfn: p.PFN, cpfn: p.CPFN, lastAccess: now}
			case 1:
				if present {
					m.Free(h.pfn)
					delete(oracle, pg)
				}
			case 2:
				if present {
					m.Touch(h.pfn, now, arg&1 != 0)
					h.lastAccess = now
					oracle[pg] = h
				}
			case 3:
				// Raise the horizon to pg's last access, as Horizon LRU
				// does when it evicts pg: every older page becomes a ghost,
				// and pg itself, sitting exactly on the horizon, stays live.
				if present && h.lastAccess > horizon {
					horizon = h.lastAccess
				}
			}
			if i%32 == 30 {
				audit()
			}
		}
		audit()
	})
}
