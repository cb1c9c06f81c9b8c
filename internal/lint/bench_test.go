package lint

import "testing"

// BenchmarkMosaiclintTree measures a full mosaiclint pass over the module —
// parallel load plus every analyzer — so an analyzer's cost can be priced
// with `go test -bench MosaiclintTree ./internal/lint` before it lands.
func BenchmarkMosaiclintTree(b *testing.B) {
	for b.Loop() {
		passes, err := Load([]string{"mosaic/..."})
		if err != nil {
			b.Fatal(err)
		}
		diags := RunAll(passes, All())
		if len(diags) != 0 {
			b.Fatalf("tree not clean: %v", diags)
		}
	}
}
