package lint

import (
	"context"
	"go/ast"
	"go/token"
	"go/types"

	"mosaic/internal/sweep"
)

// The fixpoint summary engine. Summaries are computed bottom-up over the
// call-graph condensation (callgraph.go): every SCC follows the SCCs it
// calls into, so a function's callees are already summarised when it is
// visited. Inside a cyclic SCC the members iterate to a joint fixpoint.
//
// Termination is by construction, not by luck:
//
//   - every lattice is finite and (except `spins`, see below) monotone
//     increasing from a pessimistic bottom — lock effects only accumulate,
//     boolean facts only flip false→true, taint masks only gain bits;
//   - the lock-effect list is widened: it saturates at maxLockEffects and
//     the summary records the saturation instead of growing;
//   - `spins` is recomputed from scratch each iteration and reads
//     `consultsCancel` negatively, so the loop additionally carries an
//     iteration cap (sccIterCap) as a widening backstop — once
//     consultsCancel stabilises (monotone, so it must), spins itself
//     becomes monotone and settles.
//
// The global fieldTaint lattice cuts across the condensation (a field
// written in a leaf is read in a root), so the taint phase repeats whole
// bottom-up rounds until nothing changes, bounded by maxTaintRounds.
//
// Parallelism: within one rank of the condensation no SCC can reach
// another, so each rank's SCCs are summarised concurrently over
// internal/sweep. Results come back in submission-index order and are
// merged sequentially, so the computed summaries — and everything derived
// from them — are identical at any worker count.

// maxLockEffects caps a summary's lock-effect list (the widening bound).
const maxLockEffects = 8

// maxTaintRounds caps the whole-program taint rounds. Each round needs a
// fieldTaint bit discovered in a previous round to make progress; the mask
// has five bits, so real programs settle in two or three rounds.
const maxTaintRounds = 8

// sccIterCap bounds fixpoint iterations inside one SCC of n members.
func sccIterCap(n int) int { return 3 + 2*n }

// A funcSummary is the caller-visible behaviour of one declared function,
// computed to fixpoint over the whole module.
type funcSummary struct {
	// effects are the lock operations whose balance the caller inherits:
	// locks held at some return (acquire) and unlocks of locks the function
	// never took itself (release).
	effects []lockEffect
	// saturated marks a summary whose effect list hit maxLockEffects and
	// was widened (further effects dropped).
	saturated bool
	// lockHelper marks a function whose body is nothing but lock-management
	// statements — a deliberate Lock/Unlock wrapper, possibly through other
	// helpers. Such a function is summarised, not flagged; its callers
	// carry the balancing burden. Only helpers export acquire effects
	// (releases are exported by everyone): a non-helper that nets an
	// acquire is a leak flagged in place, not a burden passed upward.
	lockHelper bool
	// bounded marks a single-result function whose every return expression
	// is range-reduced — masked directly or produced by a bounded callee.
	bounded bool
	// returnsFreshCtx marks a function that can return a context rooted in
	// context.Background()/TODO() rather than one it was handed.
	returnsFreshCtx bool
	// consultsCancel: the function (or anything it calls) observes a
	// cancellation/done edge — a context value, a channel receive, a
	// select, a range over a channel.
	consultsCancel bool
	// spins: the function contains an unconditional for-loop with no exit
	// and no done edge, at any call depth.
	spins bool
	// retTaint is the nondeterminism taint carried by the return values.
	retTaint taintMask
	// paramsToRet has bit s set when parameter slot s flows into a return
	// value.
	paramsToRet uint32
	// paramSinks names the determinism sink a parameter slot reaches inside
	// this function (directly or through callees), keyed by slot.
	paramSinks map[int]string
}

// exportedEffects returns the effects a caller inherits: everything from a
// lock helper, releases only from anything else.
func (s *funcSummary) exportedEffects() []lockEffect {
	if s.lockHelper {
		return s.effects
	}
	var out []lockEffect
	for _, e := range s.effects {
		if !e.acquire {
			out = append(out, e)
		}
	}
	return out
}

func (s *funcSummary) addEffect(e lockEffect) {
	if len(s.effects) >= maxLockEffects {
		s.saturated = true
		return
	}
	s.effects = append(s.effects, e)
}

func effectsEqual(a, b []lockEffect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// coreEqual compares the phase-1 lattice fields of two summaries.
func coreEqual(a, b *funcSummary) bool {
	return effectsEqual(a.effects, b.effects) && a.saturated == b.saturated &&
		a.lockHelper == b.lockHelper && a.bounded == b.bounded &&
		a.returnsFreshCtx == b.returnsFreshCtx && a.consultsCancel == b.consultsCancel &&
		a.spins == b.spins
}

// taintEqual compares the phase-2 lattice fields of two summaries.
func taintEqual(a, b *funcSummary) bool {
	if a.retTaint != b.retTaint || a.paramsToRet != b.paramsToRet || len(a.paramSinks) != len(b.paramSinks) {
		return false
	}
	for slot, desc := range a.paramSinks {
		if b.paramSinks[slot] != desc {
			return false
		}
	}
	return true
}

// A sumCtx resolves callee summaries during summarisation: members of the
// SCC currently iterating read each other's in-flight values through the
// overlay; everything else reads the settled summary on the node.
type sumCtx struct {
	pr      *Program
	overlay map[*progFunc]*funcSummary
}

func (c *sumCtx) forNode(pf *progFunc) *funcSummary {
	if s, ok := c.overlay[pf]; ok {
		return s
	}
	return pf.sum
}

// forFunc resolves a types.Func (any universe) to its current summary, or
// nil for functions outside the module.
func (c *sumCtx) forFunc(fn *types.Func) *funcSummary {
	pf := c.pr.node(fn)
	if pf == nil {
		return nil
	}
	return c.forNode(pf)
}

// callSummary resolves a call expression's callee summary, or nil.
func (c *sumCtx) callSummary(p *Pass, call *ast.CallExpr) *funcSummary {
	fn, ok := callee(p.Info, call).(*types.Func)
	if !ok {
		return nil
	}
	return c.forFunc(fn)
}

// computeSummaries drives both phases over the condensation.
func (pr *Program) computeSummaries() {
	ctx := context.Background()
	for _, rank := range pr.ranks {
		sums, _ := sweep.Run(ctx, rank, func(_ context.Context, _ int, scc int) ([]*funcSummary, error) {
			return pr.coreSCC(pr.sccs[scc]), nil
		}, sweep.Options{Workers: pr.workers, Name: "lint summaries"})
		for si, scc := range rank {
			for mi, pf := range pr.sccs[scc] {
				pf.sum = sums[si][mi]
			}
		}
	}
	// Taint rounds with dirty-SCC scheduling. Round 0 scans every SCC and
	// records, per SCC, the field IDs its members consult; later rounds
	// re-scan only SCCs whose inputs moved — a cross-SCC callee whose taint
	// summary changed, or a consulted field whose global mask grew. The
	// whole computation is monotone, so deferring a propagation to a later
	// round cannot change the least fixpoint it converges to, and the dirty
	// sets are derived from the (deterministic) scan results alone, so the
	// schedule is identical at any worker count.
	sccReads := make([][]string, len(pr.sccs))
	changedFuncs := map[*progFunc]bool{}
	changedFields := map[string]bool{}
	dirty := func(scc int) bool {
		for _, pf := range pr.sccs[scc] {
			for _, e := range pf.out {
				if e.to.scc != pf.scc && changedFuncs[e.to] {
					return true
				}
			}
		}
		for _, id := range sccReads[scc] {
			if changedFields[id] {
				return true
			}
		}
		return false
	}
	for round := 0; round < maxTaintRounds; round++ {
		nextFuncs := map[*progFunc]bool{}
		nextFields := map[string]bool{}
		scanned := false
		for _, rank := range pr.ranks {
			todo := rank
			if round > 0 {
				todo = nil
				for _, scc := range rank {
					if dirty(scc) {
						todo = append(todo, scc)
					}
				}
			}
			if len(todo) == 0 {
				continue
			}
			scanned = true
			outs, _ := sweep.Run(ctx, todo, func(_ context.Context, _ int, scc int) (*taintSCCOut, error) {
				return pr.taintSCC(pr.sccs[scc]), nil
			}, sweep.Options{Workers: pr.workers, Name: "lint taint"})
			// Sequential merge in submission order: deterministic at any
			// worker count.
			for si, scc := range todo {
				o := outs[si]
				sccReads[scc] = o.reads
				for mi, pf := range pr.sccs[scc] {
					ns := o.sums[mi]
					if !taintEqual(pf.sum, ns) {
						nextFuncs[pf] = true
						pf.sum.retTaint = ns.retTaint
						pf.sum.paramsToRet = ns.paramsToRet
						pf.sum.paramSinks = ns.paramSinks
					}
				}
				for _, fw := range o.fields {
					if pr.fieldTaint[fw.id]&fw.mask != fw.mask {
						pr.fieldTaint[fw.id] |= fw.mask
						nextFields[fw.id] = true
					}
				}
			}
		}
		if !scanned || (len(nextFuncs) == 0 && len(nextFields) == 0) {
			break
		}
		changedFuncs, changedFields = nextFuncs, nextFields
	}
}

// coreSCC computes the phase-1 summaries for one SCC, iterating cyclic
// components to a fixpoint from a pessimistic bottom. Returns summaries in
// member order.
func (pr *Program) coreSCC(comp []*progFunc) []*funcSummary {
	c := &sumCtx{pr: pr, overlay: map[*progFunc]*funcSummary{}}
	if !cyclic(comp) {
		return []*funcSummary{summarizeCore(c, comp[0])}
	}
	for _, pf := range comp {
		c.overlay[pf] = &funcSummary{}
	}
	for iter := 0; iter < sccIterCap(len(comp)); iter++ {
		changed := false
		for _, pf := range comp {
			ns := summarizeCore(c, pf)
			if !coreEqual(c.overlay[pf], ns) {
				changed = true
			}
			c.overlay[pf] = ns
		}
		if !changed {
			break
		}
	}
	out := make([]*funcSummary, len(comp))
	for i, pf := range comp {
		out[i] = c.overlay[pf]
	}
	return out
}

// summarizeCore computes every phase-1 lattice for one function.
func summarizeCore(c *sumCtx, pf *progFunc) *funcSummary {
	s := &funcSummary{}
	summarizeLocks(c, pf, s)
	s.bounded = returnsBounded(c, pf.pass, pf.decl)
	s.returnsFreshCtx = returnsFreshCtx(c, pf.pass, pf.decl)
	s.consultsCancel = consultsCancel(c, pf.pass, pf.decl)
	s.spins = bodySpins(c, pf.pass, pf.decl.Body)
	return s
}

// summarizeLocks derives the lock effects and the helper flag from the
// function's top-level statements, folding calls to (transitively
// recognised) lock helpers as if their lock operations were inlined — that
// is what promotes a helper-of-a-helper to a helper itself.
func summarizeLocks(c *sumCtx, pf *progFunc, s *funcSummary) {
	p, fd := pf.pass, pf.decl
	slots := slotIndex(p, fd)
	held := map[lockKey]bool{}
	var order []lockKey // deterministic effect order: first-op position
	pureLockOps := len(fd.Body.List) > 0
	acquire := func(key lockKey) {
		if !held[key] {
			order = append(order, key)
		}
		held[key] = true
	}
	release := func(key lockKey) {
		if held[key] {
			delete(held, key)
			return
		}
		// Unlock of a lock this function never took: a release helper; the
		// caller must hold it.
		if eff, ok := effectFor(p, slots, key, false); ok {
			s.addEffect(eff)
		}
	}
	deferredReleases := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, acq, ok := lockOp(p, call); ok && !acq {
				delete(held, key)
				return true
			}
			if cs := c.callSummary(p, call); cs != nil && cs.lockHelper {
				for _, eff := range callSiteKeys(p, call, cs) {
					if !eff.acquire {
						delete(held, eff.key)
					}
				}
			}
			return true
		})
	}
	for _, st := range fd.Body.List {
		// A deferred unlock (direct, helper, or inside a deferred closure)
		// covers the whole function: balanced from the caller's view.
		if ds, isDefer := st.(*ast.DeferStmt); isDefer {
			pureLockOps = false
			deferredReleases(ds.Call)
			continue
		}
		es, isExpr := st.(*ast.ExprStmt)
		if !isExpr {
			pureLockOps = false
			continue
		}
		call, isCall := es.X.(*ast.CallExpr)
		if !isCall {
			pureLockOps = false
			continue
		}
		if key, acq, ok := lockOp(p, call); ok {
			if acq {
				acquire(key)
			} else {
				release(key)
			}
			continue
		}
		if cs := c.callSummary(p, call); cs != nil && cs.lockHelper {
			for _, eff := range callSiteKeys(p, call, cs) {
				if eff.acquire {
					acquire(eff.key)
				} else {
					release(eff.key)
				}
			}
			continue
		}
		pureLockOps = false
	}
	for _, key := range order {
		if !held[key] {
			continue
		}
		if eff, ok := effectFor(p, slots, key, true); ok {
			s.addEffect(eff)
		}
	}
	s.lockHelper = pureLockOps && len(s.effects) > 0 && !s.saturated
}

// returnsBounded reports whether fd has exactly one result and every return
// expression in its body (outside nested function literals) is
// range-reduced: carries a masking operation (&, %, >>) or is a call to a
// module function that is itself bounded — the transitive extension of the
// old one-level rule.
func returnsBounded(c *sumCtx, p *Pass, fd *ast.FuncDecl) bool {
	res := fd.Type.Results
	if res == nil || res.NumFields() != 1 || len(res.List[0].Names) > 1 {
		return false
	}
	found := false
	bounded := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		found = true
		if len(ret.Results) != 1 {
			bounded = false
			return true
		}
		if !hasMaskingOp(ret.Results[0]) && !boundedCallExpr(c, p, ret.Results[0]) {
			bounded = false
		}
		return true
	})
	return found && bounded
}

// boundedCallExpr reports whether e is a call to a module function whose
// summary is bounded.
func boundedCallExpr(c *sumCtx, p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sum := c.callSummary(p, call)
	return sum != nil && sum.bounded
}

// returnsFreshCtx reports whether some return path hands back a context
// rooted in context.Background()/TODO() — directly, through context.With*
// wrapping, or through a module callee that itself returns a fresh context.
func returnsFreshCtx(c *sumCtx, p *Pass, fd *ast.FuncDecl) bool {
	res := fd.Type.Results
	if res == nil {
		return false
	}
	ctxSlots := map[int]bool{}
	i := 0
	for _, field := range res.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for k := 0; k < n; k++ {
			if tv, ok := p.Info.Types[field.Type]; ok && isContextType(tv.Type) {
				ctxSlots[i] = true
			}
			i++
		}
	}
	if len(ctxSlots) == 0 {
		return false
	}
	fresh := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fresh {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for i, r := range ret.Results {
			if ctxSlots[i] && freshCtxExpr(c, p, r) {
				fresh = true
			}
		}
		return true
	})
	return fresh
}

// freshCtxExpr reports whether e evaluates to a fresh-rooted context.
func freshCtxExpr(c *sumCtx, p *Pass, e ast.Expr) bool {
	if _, ok := freshContextCall(p.Info, e); ok {
		return true
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := callee(p.Info, call).(*types.Func)
	if !ok {
		return false
	}
	// context.WithCancel(parent), WithTimeout, WithValue…: fresh iff the
	// parent is fresh.
	if fn.Pkg() != nil && fn.Pkg().Path() == "context" && len(call.Args) > 0 {
		return freshCtxExpr(c, p, call.Args[0])
	}
	sum := c.forFunc(fn)
	return sum != nil && sum.returnsFreshCtx
}

// consultsCancel reports whether the function observes any cancellation or
// done edge: a context-typed value, a channel receive, a select, a range
// over a channel, or a call into a module function that does.
func consultsCancel(c *sumCtx, p *Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if obj, ok := p.Info.Uses[x].(*types.Var); ok && isContextType(obj.Type()) {
				found = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok {
				if _, isCh := tv.Type.Underlying().(*types.Chan); isCh {
					found = true
				}
			}
		case *ast.CallExpr:
			if sum := c.callSummary(p, x); sum != nil && sum.consultsCancel {
				found = true
			}
		}
		return !found
	})
	return found
}

// bodySpins reports whether the body contains — at any static call depth —
// an unconditional for-loop with no exit and no done edge. Function
// literals are excluded: they run in their own goroutine or callback
// context and are judged at their own spawn sites.
func bodySpins(c *sumCtx, p *Pass, body ast.Node) bool {
	spins := false
	ast.Inspect(body, func(n ast.Node) bool {
		if spins {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if x.Cond == nil && !loopEscapes(c, p, x.Body) {
				spins = true
				return false
			}
		case *ast.CallExpr:
			if sum := c.callSummary(p, x); sum != nil && sum.spins {
				spins = true
				return false
			}
		}
		return true
	})
	return spins
}

// loopEscapes reports whether an unconditional loop body has an exit edge
// (return, break, goto, panic) or a done edge (context use, channel
// receive, select, range over a channel, or a call into a module function
// that consults cancellation).
func loopEscapes(c *sumCtx, p *Pass, body *ast.BlockStmt) bool {
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		if esc {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			esc = true
		case *ast.BranchStmt:
			if x.Tok == token.BREAK || x.Tok == token.GOTO {
				esc = true
			}
		case *ast.SelectStmt:
			esc = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				esc = true
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok {
				if _, isCh := tv.Type.Underlying().(*types.Chan); isCh {
					esc = true
				}
			}
		case *ast.Ident:
			if obj, ok := p.Info.Uses[x].(*types.Var); ok && isContextType(obj.Type()) {
				esc = true
			}
		case *ast.ExprStmt:
			if isPanicCall(p.Info, x.X) {
				esc = true
			}
		case *ast.CallExpr:
			if sum := c.callSummary(p, x); sum != nil && sum.consultsCancel {
				esc = true
			}
		}
		return !esc
	})
	return esc
}
