package lint

import (
	"go/ast"
	"go/types"
)

// DetRand enforces the repository's determinism discipline: simulation
// results must be a pure function of the configured seed, so no internal
// package may reach for math/rand's package-level functions — neither the
// implicitly-seeded global source (rand.Intn, rand.Shuffle, ...) nor ad-hoc
// generator construction (rand.New, rand.NewSource). Components receive a
// seeded *rand.Rand from their caller, ultimately built by internal/rng,
// the one exempted package. Method calls on an injected *rand.Rand are
// always fine; only package functions are flagged.
var DetRand = &Analyzer{
	Name: "detrand",
	ID:   "ML001",
	Doc:  "internal packages must use injected *rand.Rand generators, not math/rand package functions",
	Run:  runDetRand,
}

// randPkgs are the package paths whose package-level functions are banned.
var randPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

const rngPkgPath = "mosaic/internal/rng"

func runDetRand(p *Pass) []Diagnostic {
	if !p.internalPkg() || p.ImportPath == rngPkgPath {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := callee(p.Info, call).(*types.Func)
			if !ok || fn.Pkg() == nil || !randPkgs[fn.Pkg().Path()] {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // method on an injected generator
			}
			out = append(out, p.diag("detrand", call.Pos(),
				"call to %s.%s: inject a seeded *rand.Rand (see internal/rng) instead of using math/rand package functions",
				fn.Pkg().Name(), fn.Name()))
			return true
		})
	}
	return out
}
