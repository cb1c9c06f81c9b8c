package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// NarrowConv flags unguarded narrowing of 64-bit unsigned quantities — the
// representation of PFNs, virtual addresses, and refill indices throughout
// the simulator. A bare int(x) or uint32(x) of a uint64-derived value
// silently truncates (or flips sign) above 2³² and turns into an
// out-of-range slice index three calls later. The conversion is accepted
// when the value is visibly range-reduced first:
//
//   - the operand itself carries a masking operation (&, %, or >>) — the
//     iceberg bucket-index idiom int(hash % uint64(numBuckets));
//   - an enclosing if or for condition compares one of the operand's
//     variables, a dominating bounds guard;
//   - the operand is a call to a function of the same package with one
//     result whose every return expression carries a masking operation
//     (one hop: a helper that returns another helper's result does not
//     count).
//
// Constant conversions are the compiler's to check and are skipped.
var NarrowConv = &Analyzer{
	Name: "narrowconv",
	ID:   "ML013",
	Doc:  "uint64-derived values must be masked, reduced, or bounds-checked before narrowing to int/uint32-class types",
	Run:  runNarrowConv,
}

// narrowTarget reports whether converting a uint64 into t can lose range:
// a signed integer narrower than 64 bits (int is 64-bit on every platform
// the simulator targets, but a wrapped negative index still panics, so it
// counts), or an unsigned one narrower than 64 bits. int64 is excluded:
// the conversion reinterprets the sign bit but loses no magnitude bits,
// the deliberate idiom of seed plumbing and delta encoding.
func narrowTarget(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int, types.Int8, types.Int16, types.Int32:
		return true
	case types.Uint8, types.Uint16, types.Uint32:
		return true
	}
	return false
}

// isUint64 reports whether t's underlying type is uint64 (covering core.PFN
// and friends) or uintptr.
func isUint64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Kind() == types.Uint64 || b.Kind() == types.Uintptr
}

// operandVars collects every variable referenced in the operand subtree;
// a comparison against any of them in a dominating condition counts as a
// bounds guard.
func operandVars(p *Pass, e ast.Expr) map[*types.Var]bool {
	vars := map[*types.Var]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := p.Info.Uses[id].(*types.Var); ok {
				vars[v] = true
			}
		}
		return true
	})
	return vars
}

// condGuards reports whether cond mentions any of the operand's variables —
// the dominating-comparison approximation: if the enclosing branch was
// taken on some predicate over x, the conversion of x is treated as
// deliberate.
func condGuards(p *Pass, cond ast.Expr, vars map[*types.Var]bool) bool {
	if cond == nil || len(vars) == 0 {
		return false
	}
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := p.Info.Uses[id].(*types.Var); ok && vars[v] {
				found = true
			}
		}
		return true
	})
	return found
}

// dominatedByGuard climbs the enclosing-statement stack looking for a
// guard that dominates the conversion:
//
//   - an enclosing if or for whose condition mentions one of the operand's
//     variables (the branch was taken on some predicate over it);
//   - an earlier statement in an enclosing block that is an if over one of
//     the variables whose body terminates (return, continue, break, panic)
//     — the early-exit guard idiom;
//   - an earlier statement that indexes a slice or array with one of the
//     variables — that runtime bounds check has already passed, so the
//     value is known in range.
func dominatedByGuard(p *Pass, stack []ast.Node, vars map[*types.Var]bool) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch st := stack[i].(type) {
		case *ast.IfStmt:
			if condGuards(p, st.Cond, vars) {
				return true
			}
		case *ast.ForStmt:
			if condGuards(p, st.Cond, vars) {
				return true
			}
		case *ast.BlockStmt:
			if i+1 < len(stack) && priorSiblingGuards(p, st.List, stack[i+1], vars) {
				return true
			}
		case *ast.CaseClause:
			if i+1 < len(stack) && priorSiblingGuards(p, st.Body, stack[i+1], vars) {
				return true
			}
		case *ast.CommClause:
			if i+1 < len(stack) && priorSiblingGuards(p, st.Body, stack[i+1], vars) {
				return true
			}
		case *ast.FuncDecl, *ast.FuncLit:
			return false // guards do not cross function boundaries
		}
	}
	return false
}

// priorSiblingGuards scans the statements of a block that precede child
// (the statement containing the conversion) for a dominating guard.
func priorSiblingGuards(p *Pass, list []ast.Stmt, child ast.Node, vars map[*types.Var]bool) bool {
	for _, s := range list {
		if s == child {
			return false
		}
		if ifs, ok := s.(*ast.IfStmt); ok && condGuards(p, ifs.Cond, vars) && terminates(ifs.Body) {
			return true
		}
		if indexesWith(p, s, vars) {
			return true
		}
	}
	return false
}

// terminates reports whether a block's last statement leaves the enclosing
// flow: return, break, continue, goto, or panic.
func terminates(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// indexesWith reports whether any slice/array index expression under n uses
// one of the operand's variables, skipping nested function literals (their
// bodies run elsewhere).
func indexesWith(p *Pass, n ast.Node, vars map[*types.Var]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		// Map indexes prove nothing about range; require a slice or array.
		if tv, ok := p.Info.Types[ix.X]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Array, *types.Pointer:
			default:
				return true
			}
		}
		if condGuards(p, ix.Index, vars) {
			found = true
		}
		return true
	})
	return found
}

// hasMaskingOp reports whether the expression tree contains a &, %, or >>
// binary operation — the range-reduction idioms a bounds guard recognises.
func hasMaskingOp(e ast.Expr) bool {
	masked := false
	ast.Inspect(e, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok {
			switch b.Op {
			case token.AND, token.REM, token.SHR:
				masked = true
			}
		}
		return !masked
	})
	return masked
}

// boundedCall reports whether e is a call to a function declared in this
// package whose single result is masked on every return path.
func boundedCall(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := callee(p.Info, call).(*types.Func)
	if !ok || fn.Pkg() != p.Pkg {
		return false
	}
	fd := p.funcDecl(fn.Origin())
	if fd == nil || fd.Body == nil {
		return false
	}
	res := fd.Type.Results
	if res == nil || res.NumFields() != 1 {
		return false
	}
	found, bounded := false, true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			found = true
			bounded = bounded && len(ret.Results) == 1 && hasMaskingOp(ret.Results[0])
		}
		return bounded
	})
	return found && bounded
}

// funcDecl returns the declaration of fn among the pass's files, or nil.
func (p *Pass) funcDecl(fn *types.Func) *ast.FuncDecl {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && p.Info.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

func runNarrowConv(p *Pass) []Diagnostic {
	if !p.internalPkg() {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			// A conversion is a call whose Fun denotes a type.
			ftv, ok := p.Info.Types[call.Fun]
			if !ok || !ftv.IsType() {
				return true
			}
			arg := call.Args[0]
			atv, ok := p.Info.Types[arg]
			if !ok || !isUint64(atv.Type) || !narrowTarget(ftv.Type) {
				return true
			}
			if atv.Value != nil && constant.Val(atv.Value) != nil {
				return true // constant: the compiler checks representability
			}
			if hasMaskingOp(arg) || boundedCall(p, arg) {
				return true
			}
			if dominatedByGuard(p, stack[:len(stack)-1], operandVars(p, arg)) {
				return true
			}
			src := types.TypeString(atv.Type, types.RelativeTo(p.Pkg))
			dst := types.TypeString(ftv.Type, types.RelativeTo(p.Pkg))
			out = append(out, p.diag("narrowconv", call.Pos(),
				"%s narrowed to %s without a bounds guard: values above the target range truncate silently; mask (&), reduce (%%), shift (>>), or compare it first",
				src, dst))
			return true
		})
	}
	return out
}
