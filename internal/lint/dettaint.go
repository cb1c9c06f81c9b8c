package lint

// DetTaint tracks nondeterminism interprocedurally from its sources — the
// wall clock (time.Now/Since), the process environment, the global
// math/rand stream, select/goroutine interleaving, and map iteration
// order — to the module's determinism sinks: results.File metrics, the
// reference stream's batcher, trace writers and batch sinks, and obs
// registry instruments. Those surfaces back the repo's reproducibility
// gates (workers=1≡N byte-identity, batch-boundary invariance, seed-stable
// results files); a tainted value reaching one is a
// diverging run waiting to happen, no matter how many calls or struct
// fields it travelled through on the way.
//
// Two escapes are deliberate. Map-derived data loses its iteration-order
// taint when the collection is handed to sort/slices (collect-then-sort is
// the sanctioned idiom). And instruments fetched under the reserved
// "wall." metric namespace are exempt: that namespace is the telemetry
// plane for wall-clock observations, and results.File.AddSnapshot excludes
// it from deterministic results files.
var DetTaint = &Analyzer{
	Name: "dettaint",
	ID:   "ML014",
	Doc:  "nondeterministic values (wall clock, env, global rand, select ordering, map order) must not flow into results, traces, or non-wall.* metrics",
	Run:  runDetTaint,
}

func runDetTaint(p *Pass) []Diagnostic {
	if !p.internalPkg() && p.ImportPath != "mosaic" {
		return nil
	}
	pr := p.flow()
	c := &sumCtx{pr: pr}
	var out []Diagnostic
	for _, pf := range pr.funcs {
		if pf.pass != p {
			continue
		}
		ts := newTaintScan(c, pf)
		ts.run()
		for _, h := range ts.hits {
			if h.via != "" {
				out = append(out, p.diag("dettaint", h.pos,
					"%s-tainted value reaches %s through %s: two runs of one seed diverge; derive it from the reference stream or publish it under the wall.* telemetry namespace",
					h.mask.label(), h.sink, h.via))
				continue
			}
			out = append(out, p.diag("dettaint", h.pos,
				"%s-tainted value flows into %s: two runs of one seed diverge; derive it from the reference stream or publish it under the wall.* telemetry namespace",
				h.mask.label(), h.sink))
		}
	}
	return out
}
