package lint

import (
	"go/ast"
	"go/types"
)

// ErrDrop flags call statements that silently discard an error returned by
// the allocation API — the layer whose errors encode placement conflicts
// and capacity exhaustion, exactly the conditions the simulator
// exists to measure. A dropped alloc.ErrConflict
// turns a measurable eviction into silent corruption.
//
// Only the implicit discard (a call used as a statement) is flagged; an
// explicit `_ = f()` is a reviewable, deliberate decision and is allowed.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	ID:   "ML004",
	Doc:  "error returns from the alloc API must not be silently discarded",
	Run:  runErrDrop,
}

// errDropPkg is the API layer whose errors must be handled.
const errDropPkg = "mosaic/internal/alloc"

var errorType = types.Universe.Lookup("error").Type()

// returnsError reports whether any result of the signature is the error
// type.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}

func runErrDrop(p *Pass) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := callee(p.Info, call).(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != errDropPkg {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || !returnsError(sig) {
				return true
			}
			out = append(out, p.diag("errdrop", call.Pos(),
				"result of %s.%s discarded: handle the error (or assign to _ to discard explicitly)",
				fn.Pkg().Name(), fn.Name()))
			return true
		})
	}
	return out
}
