// Package lint implements mosaiclint, the repository's static-analysis
// suite. It is built on the standard library only (go/ast, go/parser,
// go/types plus `go list` for export data) so it runs in the same
// dependency-free environment as the rest of the module.
//
// The analyzers encode repo-specific invariants that ordinary vet checks
// cannot know about:
//
//   - detrand:    internal packages must not call math/rand package
//     functions; randomness is injected as a seeded *rand.Rand
//     built by internal/rng (seed-reproducibility of results).
//   - nopanic:    library code panics only in constructors and config
//     validation, never on steady-state paths.
//   - cpfnbounds: raw integer→CPFN conversions and PFN arithmetic are
//     confined to internal/core and internal/alloc.
//   - errdrop:    error returns from the alloc and swap APIs must not be
//     silently discarded.
//   - obsnames:   constant metric names handed to internal/obs must be
//     lowercase dotted identifiers (the registry's grammar).
//   - narrowconv: uint64-derived values (PFNs, virtual addresses, refill
//     indices) must be masked, reduced, or bounds-checked before narrowing
//     to int/uint32-class types.
//
// Every analyzer works on one package at a time. Properties that need the
// whole program or the compiler are checked by running the code instead:
// TestParallelMatchesSequential pins determinism across worker counts, the
// goroutine-settle test in internal/sweep pins that no goroutine outlives
// its owner, and TestHotPathZeroAllocs pins the allocation-free miss path.
//
// Every analyzer has a stable diagnostic ID (ML001…), listed by
// mosaiclint -list. IDs are never reused. Retired IDs: ML006 maporder, ML007 sweepsafe, ML008 hotalloc,
// ML009 bcegate, ML010 inlinegate, ML011 lockflow, ML012 ctxflow, ML014
// dettaint, ML015 batchparity, ML016 goleak.
//
// A finding can be suppressed with a directive comment on the same line or
// the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The analyzer must be one mosaiclint knows and the reason is mandatory;
// a directive that breaks either rule is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier, used in output and in
	// //lint:ignore directives.
	Name string
	// ID is the analyzer's stable diagnostic identifier ("ML004"). IDs are
	// append-only: a retired analyzer's ID is never given to another.
	ID string
	// Doc is a one-line description.
	Doc string
	// Run inspects the pass and returns its findings. Suppression by
	// directive is applied by the driver, not by Run. Nil for the
	// directive pseudo-analyzer, whose findings come from scanDirectives.
	Run func(*Pass) []Diagnostic
}

// All returns the per-package analyzer suite in output order.
func All() []*Analyzer {
	return []*Analyzer{DetRand, NoPanic, CPFNBounds, ErrDrop, ObsNames, NarrowConv}
}

// Catalog returns every analyzer mosaiclint can report under, including
// the directive pseudo-analyzer, for -list output and directive checks.
func Catalog() []*Analyzer {
	return append(All(), directiveInfo)
}

// directiveInfo describes the pseudo-analyzer that reports malformed
// //lint:ignore directives.
var directiveInfo = &Analyzer{
	Name: "directive",
	ID:   "ML000",
	Doc:  "//lint:ignore directives must name a known analyzer and carry a reason",
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass is one type-checked package presented to the analyzers.
type Pass struct {
	// ImportPath is the package's import path ("mosaic/internal/tlb").
	// Several rules scope themselves by path prefix.
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info

	ignores       map[ignoreKey]bool
	badDirectives []Diagnostic
}

type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

var directiveRE = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s*(.*)$`)

// scanDirectives indexes every //lint:ignore comment in the pass and
// records malformed ones (unknown analyzer, missing reason) as findings.
// A malformed directive suppresses nothing.
func (p *Pass) scanDirectives() {
	known := make(map[string]bool)
	for _, an := range Catalog() {
		known[an.Name] = true
	}
	p.ignores = make(map[ignoreKey]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				var problem string
				switch {
				case !known[m[1]]:
					problem = "names no known analyzer"
				case strings.TrimSpace(m[2]) == "":
					problem = "directive needs a reason"
				}
				if problem != "" {
					p.badDirectives = append(p.badDirectives, Diagnostic{
						Pos:      pos,
						Analyzer: directiveInfo.Name,
						Message:  fmt.Sprintf("//lint:ignore %s %s", m[1], problem),
					})
					continue
				}
				p.ignores[ignoreKey{pos.Filename, pos.Line, m[1]}] = true
			}
		}
	}
}

// suppressed reports whether a directive covers the diagnostic: an ignore
// for its analyzer on the same line or the line above.
func (p *Pass) suppressed(d Diagnostic) bool {
	return p.ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
		p.ignores[ignoreKey{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}]
}

// diag builds a Diagnostic for an analyzer at a position in the pass.
func (p *Pass) diag(analyzer string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// Run applies one analyzer to the pass and filters directive-suppressed
// findings.
func (p *Pass) Run(an *Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, d := range an.Run(p) {
		if !p.suppressed(d) {
			out = append(out, d)
		}
	}
	return out
}

// sortDiagnostics orders diagnostics by position, then analyzer — the
// stable output order.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// RunAll applies every analyzer to every pass, appends malformed-directive
// findings, and returns the result sorted by position.
func RunAll(passes []*Pass, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, p := range passes {
		out = append(out, p.badDirectives...)
		for _, an := range analyzers {
			out = append(out, p.Run(an)...)
		}
	}
	sortDiagnostics(out)
	return out
}

// internalPkg reports whether the pass is part of the module's internal
// library tree, where the library-discipline rules apply.
func (p *Pass) internalPkg() bool {
	return strings.HasPrefix(p.ImportPath, "mosaic/internal/")
}

// callee resolves the object a call expression invokes: a package function,
// a method, or nil for builtins, conversions, and indirect calls through
// function values.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// namedFrom reports whether t (after unwrapping aliases) is the named type
// pkgPath.name.
func namedFrom(t types.Type, pkgPath, name string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
