package fixture

import "mosaic/internal/alloc"

// dropUnconstrained loses an out-of-frames failure from the baseline
// allocator.
func dropUnconstrained(u *alloc.Unconstrained) {
	u.Place(1, 2, 3) // want "result of alloc.Place discarded"
}

// dropPlace loses an alloc conflict.
func dropPlace(m *alloc.Memory) {
	m.Place(1, 2, 3, 4) // want "result of alloc.Place discarded"
}
