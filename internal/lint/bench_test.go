package lint

import "testing"

// BenchmarkMosaiclintTree measures a full mosaiclint pass over the module —
// parallel load plus every analyzer. scripts/bench.sh records this into
// BENCH_lint.json so analyzer additions pay for their cost visibly.
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
