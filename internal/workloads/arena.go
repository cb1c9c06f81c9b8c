package workloads

import (
	"fmt"

	"mosaic/internal/trace"
)

// DefaultHeapBase is where workload arenas start — a heap-like address well
// above the zero page.
const DefaultHeapBase = 0x10000000

// Arena is a bump allocator over the simulated virtual address space: the
// workloads' stand-in for mmap/sbrk. It tracks only addresses; backing
// storage lives in ordinary Go slices owned by the emitting array types.
type Arena struct {
	base uint64
	next uint64
}

// NewArena creates an arena starting at base (DefaultHeapBase if zero).
func NewArena(base uint64) *Arena {
	if base == 0 {
		base = DefaultHeapBase
	}
	return &Arena{base: base, next: base}
}

// Alloc reserves size bytes aligned to align (a power of two, or Alloc
// panics; 0 means 8).
func (a *Arena) Alloc(size, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("workloads: alignment %d not a power of two", align))
	}
	a.next = (a.next + align - 1) &^ (align - 1)
	va := a.next
	a.next += size
	return va
}

// Size is the total number of bytes reserved so far.
func (a *Arena) Size() uint64 { return a.next - a.base }

// U64Array is a uint64 array at a fixed simulated address; element reads
// and writes emit the corresponding data references.
type U64Array struct {
	VA   uint64
	Data []uint64
}

// NewU64Array allocates an n-element array in the arena.
func NewU64Array(a *Arena, n int) *U64Array {
	return &U64Array{VA: a.Alloc(uint64(n)*8, 8), Data: make([]uint64, n)}
}

// Addr is the address of element i.
func (arr *U64Array) Addr(i int) uint64 { return arr.VA + uint64(i)*8 }

// Get reads element i, emitting the reference: it is packed straight into
// the batcher's buffer, no interface dispatch until a batch fills.
func (arr *U64Array) Get(b *trace.Batcher, i int) uint64 {
	b.Access(arr.Addr(i), false)
	return arr.Data[i]
}

// Set writes element i, emitting the reference.
func (arr *U64Array) Set(b *trace.Batcher, i int, v uint64) {
	b.Access(arr.Addr(i), true)
	arr.Data[i] = v
}

// Len is the element count.
func (arr *U64Array) Len() int { return len(arr.Data) }

// F64Array is a float64 array at a fixed simulated address.
type F64Array struct {
	VA   uint64
	Data []float64
}

// NewF64Array allocates an n-element array in the arena.
func NewF64Array(a *Arena, n int) *F64Array {
	return &F64Array{VA: a.Alloc(uint64(n)*8, 8), Data: make([]float64, n)}
}

// Addr is the address of element i.
func (arr *F64Array) Addr(i int) uint64 { return arr.VA + uint64(i)*8 }

// Get reads element i, emitting the reference.
func (arr *F64Array) Get(b *trace.Batcher, i int) float64 {
	b.Access(arr.Addr(i), false)
	return arr.Data[i]
}

// Set writes element i, emitting the reference.
func (arr *F64Array) Set(b *trace.Batcher, i int, v float64) {
	b.Access(arr.Addr(i), true)
	arr.Data[i] = v
}

// Len is the element count.
func (arr *F64Array) Len() int { return len(arr.Data) }

// U32Array is a uint32 array at a fixed simulated address.
type U32Array struct {
	VA   uint64
	Data []uint32
}

// NewU32Array allocates an n-element array in the arena.
func NewU32Array(a *Arena, n int) *U32Array {
	return &U32Array{VA: a.Alloc(uint64(n)*4, 8), Data: make([]uint32, n)}
}

// Addr is the address of element i.
func (arr *U32Array) Addr(i int) uint64 { return arr.VA + uint64(i)*4 }

// Get reads element i, emitting the reference.
func (arr *U32Array) Get(b *trace.Batcher, i int) uint32 {
	b.Access(arr.Addr(i), false)
	return arr.Data[i]
}

// Set writes element i, emitting the reference.
func (arr *U32Array) Set(b *trace.Batcher, i int, v uint32) {
	b.Access(arr.Addr(i), true)
	arr.Data[i] = v
}

// Len is the element count.
func (arr *U32Array) Len() int { return len(arr.Data) }
