package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder protects the sweep engine's headline guarantee — byte-identical
// JSON at any worker count — from Go's randomized map iteration order. A
// `range` over a map is fine while the loop body only does commutative
// work (summing values, building another map, collecting keys to sort),
// but the moment the body emits ordered output the result depends on the
// iteration order of that one run:
//
//   - appending composite records to a slice declared outside the loop
//     (result cells, series, events — the rows that reach results JSON);
//     appending basic-typed elements is allowed, because collecting keys
//     into a slice and sorting it is the canonical remedy;
//   - writing through a reference sink (an Access method on a *Sink type
//     or anything from internal/trace) — the reference stream itself would
//     replay in map order;
//   - contributing to a sweep.Merger (Put), setting an obs gauge, or
//     recording obs events — last-writer-wins and append-ordered planes;
//   - printing (fmt.Print family, the print/println builtins).
//
// The fix is always the same: extract the keys, sort them, range over the
// sorted slice.
var MapOrder = &Analyzer{
	Name: "maporder",
	ID:   "ML006",
	Doc:  "loops over maps must not emit ordered output; iterate a sorted key slice instead",
	Run:  runMapOrder,
}

// fmtPrinters are the fmt functions that emit in call order.
var fmtPrinters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// orderedPkgs are the packages whose method calls are treated as ordered
// emission when made from inside a map-range body.
var orderedPkgs = map[string]bool{
	"mosaic/internal/trace": true,
}

// recvNamed returns the named type of a method's receiver with pointers
// unwrapped, or nil for non-methods.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// orderedCall classifies a call inside a map-range body as ordered
// emission, returning a short description or "".
func orderedCall(p *Pass, call *ast.CallExpr) string {
	// print/println builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj, ok := p.Info.Uses[id]; ok && (obj == types.Universe.Lookup("print") || obj == types.Universe.Lookup("println")) {
			return "prints via " + id.Name
		}
	}
	fn, ok := callee(p.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	pkg := fn.Pkg().Path()
	if pkg == "fmt" && fmtPrinters[fn.Name()] {
		return "prints via fmt." + fn.Name()
	}
	named := recvNamed(fn)
	recvName := ""
	if named != nil {
		recvName = named.Obj().Name()
	}
	switch {
	case orderedPkgs[pkg]:
		return "writes the trace plane via " + fn.Name()
	case pkg == "mosaic/internal/sweep" && recvName == "Merger" && fn.Name() == "Put":
		return "contributes to a sweep.Merger"
	case pkg == "mosaic/internal/obs" && recvName == "Gauge" && fn.Name() == "Set":
		return "sets an obs gauge (last-writer-wins)"
	case pkg == "mosaic/internal/obs" && recvName == "EventLog":
		return "records obs events"
	case fn.Name() == "Access" && strings.Contains(recvName, "Sink"):
		return "emits references through " + recvName + ".Access"
	}
	return ""
}

// sortFuncs lists the sort entry points that neutralize an append-in-map-
// order: a slice that is sorted after the loop no longer depends on
// iteration order.
var sortFuncs = map[string]map[string]bool{
	"sort":   {"Slice": true, "SliceStable": true, "Sort": true, "Stable": true, "Strings": true, "Ints": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortedAfter reports whether body contains, after pos, a sort call whose
// first argument is (textually) target — the append-then-sort idiom.
func sortedAfter(p *Pass, body ast.Node, pos token.Pos, target string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		fn, ok := callee(p.Info, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		names := sortFuncs[fn.Pkg().Path()]
		if names != nil && names[fn.Name()] && exprText(p.Fset, call.Args[0]) == target {
			found = true
		}
		return true
	})
	return found
}

// outerAppend reports whether the assignment appends a composite element to
// a slice declared outside the range statement, returning a description and
// the target's source text (for the sorted-after check).
func outerAppend(p *Pass, as *ast.AssignStmt, rs *ast.RangeStmt) (string, string) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || p.Info.Uses[id] != types.Universe.Lookup("append") {
			continue
		}
		if i >= len(as.Lhs) && len(as.Lhs) != 1 {
			continue
		}
		var target ast.Expr
		if len(as.Lhs) == 1 {
			target = as.Lhs[0]
		} else {
			target = as.Lhs[i]
		}
		outside := false
		switch t := ast.Unparen(target).(type) {
		case *ast.Ident:
			obj := p.Info.Uses[t]
			if obj == nil {
				obj = p.Info.Defs[t]
			}
			outside = obj != nil && (obj.Pos() < rs.Pos() || obj.Pos() > rs.End())
		case *ast.SelectorExpr:
			outside = true // field of some longer-lived struct
		}
		if !outside {
			continue
		}
		tv, ok := p.Info.Types[rhs]
		if !ok {
			continue
		}
		slice, ok := tv.Type.Underlying().(*types.Slice)
		if !ok {
			continue
		}
		if _, basic := slice.Elem().Underlying().(*types.Basic); basic {
			continue // collecting keys for sorting — the canonical fix
		}
		return "appends " + types.TypeString(slice.Elem(), types.RelativeTo(p.Pkg)) +
			" records to a slice that outlives the loop", exprText(p.Fset, target)
	}
	return "", ""
}

// enclosingBody returns the innermost function body in the stack.
func enclosingBody(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

func runMapOrder(p *Pass) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			body := enclosingBody(stack[:len(stack)-1])
			var what string
			ast.Inspect(rs.Body, func(m ast.Node) bool {
				if what != "" {
					return false
				}
				switch stmt := m.(type) {
				case *ast.CallExpr:
					if desc := orderedCall(p, stmt); desc != "" {
						what = desc
						return false
					}
				case *ast.AssignStmt:
					desc, target := outerAppend(p, stmt, rs)
					if desc != "" {
						// An append-then-sort is the canonical remedy, not
						// a finding.
						if body != nil && sortedAfter(p, body, rs.End(), target) {
							return false
						}
						what = desc
						return false
					}
				}
				return true
			})
			if what != "" {
				out = append(out, p.diag("maporder", rs.Pos(),
					"range over map %s %s: map iteration order is random, so this breaks workers=1 ≡ workers=N byte-identity; range over a sorted key slice instead",
					exprText(p.Fset, rs.X), what))
			}
			return true
		})
	}
	return out
}
