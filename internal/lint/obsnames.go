package lint

import (
	"go/ast"
	"go/constant"
	"go/types"

	"mosaic/internal/obs"
)

// ObsNames flags constant metric names passed to the internal/obs
// instrument constructors that are not lowercase dotted identifiers
// (obs.ValidName). The registry panics on such names at runtime, but only
// on the code path that registers them — a misspelled name in a rarely
// taken branch would otherwise surface as a crash mid-experiment instead
// of a lint finding at review time. Names computed at runtime (prefix
// concatenation) are left to the registry's own validation.
var ObsNames = &Analyzer{
	Name: "obsnames",
	ID:   "ML005",
	Doc:  "metric names passed to internal/obs must be lowercase dotted identifiers",
	Run:  runObsNames,
}

// obsNameMethods maps receiver type → methods whose first argument is a
// metric name.
var obsNameMethods = map[string]map[string]bool{
	"Registry": {"Counter": true, "Gauge": true},
	"Sampler":  {"Gauge": true, "Rate": true, "Ratio": true},
}

// obsRecvName resolves the receiver's named type (unwrapping the pointer)
// when it is declared in mosaic/internal/obs, and "" otherwise.
func obsRecvName(sig *types.Signature) string {
	recv := sig.Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "mosaic/internal/obs" {
		return ""
	}
	return obj.Name()
}

func runObsNames(p *Pass) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn, ok := callee(p.Info, call).(*types.Func)
			if !ok {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				return true
			}
			methods := obsNameMethods[obsRecvName(sig)]
			if methods == nil || !methods[fn.Name()] {
				return true
			}
			// Only constant-foldable names are checked statically; the
			// registry validates the rest when they are registered.
			tv, ok := p.Info.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true
			}
			if name := constant.StringVal(tv.Value); !obs.ValidName(name) {
				out = append(out, p.diag("obsnames", call.Args[0].Pos(),
					"metric name %q is not a lowercase dotted identifier (like %q)",
					name, "vm.fault.minor"))
			}
			return true
		})
	}
	return out
}
