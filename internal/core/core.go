// Package core defines the fundamental address types and the mosaic-page
// geometry from "Mosaic Pages: Big TLB Reach with Small Pages" (ASPLOS '23).
//
// A mosaic page is a run of Arity virtually-contiguous 4 KiB base pages.
// Physical memory is organized as an Iceberg hash table: buckets of
// BucketSize frames, split into a frontyard of FrontyardSize frames and a
// backyard of BackyardSize frames. A virtual page hashes to one frontyard
// bucket and Choices backyard buckets, for a total associativity of
// h = FrontyardSize + Choices*BackyardSize candidate frames. Which of the h
// candidates was chosen is recorded in a compressed physical frame number
// (CPFN) of ceil(log2(h+1)) bits — 7 bits for the paper's default geometry
// (f=56, b=8, d=6, h=104).
package core

import (
	"fmt"
	"math/bits"
)

// Base page parameters (4 KiB pages, as in the paper).
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)

// VPN is a virtual page number (virtual address >> PageShift).
type VPN uint64

// PFN is a physical frame number (physical address >> PageShift).
type PFN uint64

// Add returns the PFN delta frames above p. Callers outside internal/core
// and internal/alloc must use Add/Sub instead of raw PFN arithmetic, so that
// every frame-number computation the mosaiclint cpfnbounds analyzer cannot
// see is funneled through these two audited helpers.
func (p PFN) Add(delta uint64) PFN { return p + PFN(delta) }

// Sub returns the PFN delta frames below p. See Add.
func (p PFN) Sub(delta uint64) PFN { return p - PFN(delta) }

// MVPN is a mosaic virtual page number: the VPN of the mosaic page a base
// page belongs to, i.e. VPN / arity for a power-of-two arity.
type MVPN uint64

// ASID identifies an address space. The paper hashes (ASID, VPN) pairs so
// that distinct address spaces get independent placement constraints.
type ASID uint32

// CPFN is a compressed physical frame number: an index in [0, h) naming
// which of the h candidate slots a page was placed in, or CPFNInvalid.
//
// The canonical value space is:
//
//	[0, f)          frontyard slot s of the page's frontyard bucket
//	f + j*b + s     backyard slot s of the page's j-th backyard choice
//
// The paper's exact 7-bit hardware bit layout for the default geometry is
// available via Geometry.EncodeHW / Geometry.DecodeHW.
type CPFN uint8

// CPFNInvalid marks an unmapped sub-page within a table of contents. It is
// the all-ones encoding in the paper's 7-bit layout.
const CPFNInvalid CPFN = 0xFF

// Valid reports whether c names a slot (it does not validate the slot
// against any particular geometry; use Geometry.ValidCPFN for that).
func (c CPFN) Valid() bool { return c != CPFNInvalid }

// Geometry describes the iceberg bucket layout of physical memory.
// The zero value is not useful; use DefaultGeometry or construct one and
// call Validate.
type Geometry struct {
	// FrontyardSize (f) is the number of frontyard frames per bucket.
	FrontyardSize int
	// BackyardSize (b) is the number of backyard frames per bucket.
	BackyardSize int
	// Choices (d) is the number of backyard buckets a page may choose
	// among (power-of-d-choices).
	Choices int
}

// DefaultGeometry is the prototype configuration from §3.1 of the paper:
// frontyard bins of 56 frames, backyard bins of 8 frames, 6 backyard
// choices, for a total associativity of 104 and a 7-bit CPFN.
var DefaultGeometry = Geometry{FrontyardSize: 56, BackyardSize: 8, Choices: 6}

// Validate checks the geometry for internal consistency.
func (g Geometry) Validate() error {
	switch {
	case g.FrontyardSize <= 0:
		return fmt.Errorf("core: frontyard size %d must be positive", g.FrontyardSize)
	case g.BackyardSize <= 0:
		return fmt.Errorf("core: backyard size %d must be positive", g.BackyardSize)
	case g.Choices <= 0:
		return fmt.Errorf("core: backyard choices %d must be positive", g.Choices)
	case g.Associativity() > 254:
		return fmt.Errorf("core: associativity %d does not fit a byte-wide CPFN", g.Associativity())
	}
	return nil
}

// BucketSize is the number of frames per bucket: frontyard plus backyard.
func (g Geometry) BucketSize() int { return g.FrontyardSize + g.BackyardSize }

// Associativity is h, the number of physical frames a given virtual page
// may occupy: f + d*b.
func (g Geometry) Associativity() int { return g.FrontyardSize + g.Choices*g.BackyardSize }

// CPFNBits is the number of bits needed to store a CPFN for this geometry,
// including the reserved unmapped encoding: ceil(log2(h+1)).
func (g Geometry) CPFNBits() int {
	n := g.Associativity() + 1 // +1 for the unmapped sentinel
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// HashCount is the number of independent hash outputs placement needs:
// one frontyard bucket plus Choices backyard buckets.
func (g Geometry) HashCount() int { return 1 + g.Choices }

// FrontyardCPFN returns the canonical CPFN for frontyard slot s. It panics
// if the slot is out of range.
func (g Geometry) FrontyardCPFN(slot int) CPFN {
	if slot < 0 || slot >= g.FrontyardSize {
		panic(fmt.Sprintf("core: frontyard slot %d out of range [0,%d)", slot, g.FrontyardSize))
	}
	return CPFN(slot)
}

// BackyardCPFN returns the canonical CPFN for slot s of backyard choice j.
// It panics if the choice or slot is out of range.
func (g Geometry) BackyardCPFN(choice, slot int) CPFN {
	if choice < 0 || choice >= g.Choices {
		panic(fmt.Sprintf("core: backyard choice %d out of range [0,%d)", choice, g.Choices))
	}
	if slot < 0 || slot >= g.BackyardSize {
		panic(fmt.Sprintf("core: backyard slot %d out of range [0,%d)", slot, g.BackyardSize))
	}
	return CPFN(g.FrontyardSize + choice*g.BackyardSize + slot)
}

// ValidCPFN reports whether c is a well-formed slot index for this geometry.
func (g Geometry) ValidCPFN(c CPFN) bool {
	return c != CPFNInvalid && int(c) < g.Associativity()
}

// IsFrontyard reports whether c names a frontyard slot.
func (g Geometry) IsFrontyard(c CPFN) bool {
	return c != CPFNInvalid && int(c) < g.FrontyardSize
}

// Split decomposes a canonical CPFN into its placement components.
// For a frontyard CPFN, choice is -1 and slot is the frontyard offset.
// For a backyard CPFN, choice is the backyard-choice index and slot the
// offset within that backyard bin. Split panics on an invalid CPFN.
func (g Geometry) Split(c CPFN) (choice, slot int) {
	if !g.ValidCPFN(c) {
		panic(fmt.Sprintf("core: split of invalid CPFN %#x", uint8(c)))
	}
	v := int(c)
	if v < g.FrontyardSize {
		return -1, v
	}
	v -= g.FrontyardSize
	return v / g.BackyardSize, v % g.BackyardSize
}

// EncodeHW converts a canonical CPFN to the paper's 7-bit hardware layout
// (§3.1): all-ones means unmapped; otherwise the leading bit selects
// frontyard (0) or backyard (1); a frontyard value carries a 6-bit slot
// offset; a backyard value carries a 3-bit choice and a 3-bit slot.
// EncodeHW is only defined for the default geometry (f=56, b=8, d=6) and
// panics for any other.
func (g Geometry) EncodeHW(c CPFN) uint8 {
	if g != DefaultGeometry {
		panic("core: hardware CPFN layout is defined for the default geometry only")
	}
	if c == CPFNInvalid {
		return 0x7F
	}
	choice, slot := g.Split(c)
	if choice < 0 {
		return uint8(slot) // 0b0_ssssss
	}
	return 0x40 | uint8(choice)<<3 | uint8(slot) // 0b1_ccc_sss
}

// DecodeHW is the inverse of EncodeHW. It panics for a non-default
// geometry or a raw value that does not encode a valid slot.
func (g Geometry) DecodeHW(raw uint8) CPFN {
	if g != DefaultGeometry {
		panic("core: hardware CPFN layout is defined for the default geometry only")
	}
	if raw == 0x7F {
		return CPFNInvalid
	}
	if raw&0x40 == 0 {
		slot := int(raw & 0x3F)
		if slot >= g.FrontyardSize {
			panic(fmt.Sprintf("core: hardware CPFN %#x has frontyard slot %d out of range", raw, slot))
		}
		return g.FrontyardCPFN(slot)
	}
	choice := int(raw>>3) & 0x7
	slot := int(raw) & 0x7
	if choice >= g.Choices {
		panic(fmt.Sprintf("core: hardware CPFN %#x has backyard choice %d out of range", raw, choice))
	}
	return g.BackyardCPFN(choice, slot)
}

// PlacementHash produces the bucket choices for a virtual page. fn is the
// hash-function index: 0 selects the frontyard bucket, 1..Choices select
// backyard buckets. Implementations must be deterministic for a given
// construction seed. The returned value is reduced modulo the bucket count
// by the caller.
type PlacementHash interface {
	// Hash returns the raw 64-bit hash of (asid, vpn) under function fn.
	Hash(asid ASID, vpn VPN, fn int) uint64
}

// PlacementHashFunc adapts a plain function to the PlacementHash interface.
type PlacementHashFunc func(asid ASID, vpn VPN, fn int) uint64

// Hash implements PlacementHash.
func (f PlacementHashFunc) Hash(asid ASID, vpn VPN, fn int) uint64 { return f(asid, vpn, fn) }

// Buckets fills dst[0] with the frontyard bucket index and dst[1..d] with
// the backyard bucket indices for (asid, vpn), all in [0, numBuckets).
// dst must have length g.HashCount() (Buckets panics otherwise, or if
// numBuckets is zero). It returns dst for convenience.
func (g Geometry) Buckets(h PlacementHash, asid ASID, vpn VPN, numBuckets uint64, dst []uint64) []uint64 {
	if len(dst) != g.HashCount() {
		panic(fmt.Sprintf("core: Buckets dst length %d, want %d", len(dst), g.HashCount()))
	}
	if numBuckets == 0 {
		panic("core: Buckets with zero buckets")
	}
	for fn := range dst {
		dst[fn] = h.Hash(asid, vpn, fn) % numBuckets
	}
	return dst
}

// FrameFor computes the physical frame named by a canonical CPFN, given the
// page's bucket choices (as produced by Buckets). Buckets are laid out
// contiguously in physical memory: bucket i owns frames
// [i*BucketSize, (i+1)*BucketSize), the first FrontyardSize of which are
// frontyard slots and the rest backyard slots.
func (g Geometry) FrameFor(c CPFN, buckets []uint64) PFN {
	choice, slot := g.Split(c)
	if choice < 0 {
		return PFN(buckets[0]*uint64(g.BucketSize()) + uint64(slot))
	}
	return PFN(buckets[1+choice]*uint64(g.BucketSize()) + uint64(g.FrontyardSize) + uint64(slot))
}

// MosaicPage computes the mosaic virtual page number and the sub-page
// offset of vpn for a power-of-two arity: a shift by log2(arity) and a
// mask. It panics if arity is not a positive power of two.
func MosaicPage(vpn VPN, arity int) (MVPN, int) {
	if arity&(arity-1) != 0 || arity <= 0 {
		panic(fmt.Sprintf("core: arity %d is not a positive power of two", arity))
	}
	return MVPN(uint64(vpn) >> bits.TrailingZeros(uint(arity))), int(uint64(vpn) & uint64(arity-1))
}

// BaseVPN is the inverse of MosaicPage: the VPN of sub-page off within m.
// It panics if off is out of range for the arity.
func BaseVPN(m MVPN, arity, off int) VPN {
	if off < 0 || off >= arity {
		panic(fmt.Sprintf("core: mosaic offset %d out of range [0,%d)", off, arity))
	}
	return VPN(uint64(m)*uint64(arity) + uint64(off))
}

// VPNOf extracts the virtual page number of a virtual address.
func VPNOf(va uint64) VPN { return VPN(va >> PageShift) }

// PageOffset extracts the within-page byte offset of a virtual address.
func PageOffset(va uint64) uint64 { return va & (PageSize - 1) }

// Address reconstructs a virtual address from a VPN and offset.
func Address(vpn VPN, offset uint64) uint64 {
	return uint64(vpn)<<PageShift | (offset & (PageSize - 1))
}
