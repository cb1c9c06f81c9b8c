// Package fixture exercises the mechanical fixes of detrand and errdrop:
// mosaiclint -fix rewrites this file into fixapply.golden.
package fixture

import (
	"math/rand"

	"mosaic/internal/alloc"
)

// shuffle builds an ad-hoc generator — the one detrand pattern with a
// mechanical rewrite.
func shuffle(seed int64, xs []int) {
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// drop discards errors from both allocators.
func drop(u *alloc.Unconstrained, m *alloc.Memory) {
	u.Place(1, 2, 3)
	m.Place(1, 2, 3, 4)
}
