package fixture

import "mosaic/internal/alloc"

// handled checks the errors — the required pattern.
func handled(u *alloc.Unconstrained, m *alloc.Memory) error {
	if _, err := u.Place(1, 2, 3); err != nil {
		return err
	}
	p, err := m.Place(1, 2, 3, 4)
	_ = p
	return err
}

// explicit discards are a reviewable decision and stay legal.
func explicit(u *alloc.Unconstrained) {
	_, _ = u.Place(5, 6, 7)
}

// nonError calls results that carry no error.
func nonError(u *alloc.Unconstrained, m *alloc.Memory) {
	u.Free(9)
	m.Touch(0, 1, false)
}
