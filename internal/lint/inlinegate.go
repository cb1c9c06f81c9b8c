package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/token"
	"regexp"
	"strconv"
	"strings"

	"mosaic/internal/lint/gate"
)

// InlineGate is the inlining-verdict gate: it parses the inliner's decisions
// (`go build -gcflags=-m=2`) for a declared set of pinned hot functions —
// the TLB probe, the iceberg single-slot wrappers, and the per-reference
// emit and unpack steps of the batch pipeline — and fails when any pin's budget verdict
// flips from "can inline" to "cannot inline". The pins are the functions the
// batch-replay engine calls once per memory reference; a missed inline there
// is a call in the innermost loop, the regression that is invisible to every
// AST-level rule because the source did not change shape, only its cost.
//
// Sites are keyed as "file: func: verdict" with the inliner's cost as the
// count, so the baseline records both the verdict and the headroom under the
// budget. A verdict flip therefore shows up as a new "cannot inline" key
// (reported with the cost delta against the baselined "can inline" cost),
// and plain cost growth within the same verdict is a regression too — the
// headroom shrank, and banking that knowingly via mosaiclint -update-inline
// is the review artifact.
//
// Generic pins are judged by their go.shape instantiation when one exists:
// the dictionary wrappers the compiler also prints always report "can
// inline", but the shape function is the code that executes, so trusting the
// wrapper would make the gate blind (see TestInlineNormalizePrefersShape).
//
// InlineGate is tree-level, so its Run is nil and the driver invokes
// RunInlineGate directly.
var InlineGate = &Analyzer{
	Name: "inlinegate",
	ID:   "ML010",
	Doc:  "pinned hot functions must keep their 'can inline' verdict against internal/lint/inline.baseline",
}

// InlineBaselineFile is the checked-in baseline, relative to the module root.
const InlineBaselineFile = "internal/lint/inline.baseline"

// An InlinePin names one function that must stay inlinable.
type InlinePin struct {
	// File is the module-relative file declaring the function.
	File string
	// Func is the canonical name as the baseline spells it: "name" or
	// "(*recv).name", type parameters stripped.
	Func string
	// Why records what hot loop depends on the pin.
	Why string
}

// InlinePins is the declared set of must-stay-inlined functions. Adding a
// pin requires its verdict to already be "can inline" (RunInlineGate fails
// otherwise); removing one is a reviewed edit here plus -update-inline.
var InlinePins = []InlinePin{
	{"internal/tlb/set.go", "(*set).lookup", "TLB probe: tag scan (narrow sets) or tag→slot map access (wide sets), flattened into every Lookup"},
	{"internal/tlb/set.go", "(*set).touch", "TLB probe: MRU fast path; only a genuine reorder pays the promote call"},
	{"internal/iceberg/iceberg.go", "(*Table).Put", "iceberg insert wrapper around PutSlot"},
	{"internal/iceberg/iceberg.go", "(*Table).Contains", "iceberg membership wrapper around Get"},
	{"internal/memsim/memsim.go", "(*Simulator).Access", "per-reference entry point: delegates to AccessFrom"},
	{"internal/trace/batch.go", "Ref.VA", "batch consumers unpack the VA in their inner loop"},
	{"internal/trace/batch.go", "Ref.Write", "batch consumers unpack the write bit in their inner loop"},
	{"internal/trace/batch.go", "MakeRef", "batch producers pack references in their inner loop"},
	{"internal/trace/batch.go", "(*Batcher).Done", "budget check at the head of every generator's outer loop"},
	{"internal/workloads/arena.go", "(*U64Array).Get", "workload emit: packed store straight into the batcher buffer"},
	{"internal/workloads/arena.go", "(*U64Array).Set", "workload emit: packed store straight into the batcher buffer"},
	{"internal/workloads/arena.go", "(*F64Array).Get", "workload emit: packed store straight into the batcher buffer"},
	{"internal/workloads/arena.go", "(*F64Array).Set", "workload emit: packed store straight into the batcher buffer"},
	{"internal/workloads/arena.go", "(*U32Array).Get", "workload emit: packed store straight into the batcher buffer"},
	{"internal/workloads/arena.go", "(*U32Array).Set", "workload emit: packed store straight into the batcher buffer"},
}

var (
	canInlineRE    = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: can inline (.+?) with cost (\d+) as: `)
	cannotInlineRE = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: cannot inline (.+?): (.+)$`)
	costRE         = regexp.MustCompile(`cost (\d+) exceeds budget (\d+)`)
)

// canonicalFuncName strips every bracketed type-argument list from an
// inliner-reported name: "(*set[go.shape.uint64]).lookup" → "(*set).lookup".
// Bracket depth is tracked because shape structs nest brackets.
func canonicalFuncName(name string) string {
	var b strings.Builder
	depth := 0
	for _, r := range name {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// inlineVerdict is one inliner decision about one instantiation of a pin.
type inlineVerdict struct {
	shape bool // a go.shape instantiation: the code that actually executes
	can   bool
	cost  int
	line  int
}

// normalizeInlineFor builds the Normalize function extracting the pinned
// functions' verdicts from -m=2 output. For each pin all instantiations are
// collected; go.shape instantiations are preferred over dictionary wrappers,
// the worst verdict among the preferred group wins, and its highest cost is
// the site count.
func normalizeInlineFor(pins []InlinePin) func(dir string, output []byte) (gate.Sites, error) {
	return func(_ string, output []byte) (gate.Sites, error) {
		return normalizeInline(pins, output)
	}
}

func normalizeInline(pins []InlinePin, output []byte) (gate.Sites, error) {
	pinByKey := make(map[string]InlinePin, len(pins))
	verdicts := make(map[string][]inlineVerdict)
	for _, p := range pins {
		pinByKey[p.File+": "+p.Func] = p
	}
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(make([]byte, 4*1024*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		var v inlineVerdict
		var file, name string
		if m := canInlineRE.FindStringSubmatch(line); m != nil {
			cost, _ := strconv.Atoi(m[4])
			v = inlineVerdict{can: true, cost: cost}
			file, name = m[1], m[3]
			v.line, _ = strconv.Atoi(m[2])
		} else if m := cannotInlineRE.FindStringSubmatch(line); m != nil {
			v = inlineVerdict{can: false, cost: 1}
			if c := costRE.FindStringSubmatch(m[4]); c != nil {
				v.cost, _ = strconv.Atoi(c[1])
			}
			file, name = m[1], m[3]
			v.line, _ = strconv.Atoi(m[2])
		} else {
			continue
		}
		key := strings.TrimPrefix(file, "./") + ": " + canonicalFuncName(name)
		if _, pinned := pinByKey[key]; !pinned {
			continue
		}
		v.shape = strings.Contains(name, "go.shape")
		verdicts[key] = append(verdicts[key], v)
	}

	sites := make(gate.Sites)
	for key, vs := range verdicts {
		shaped := vs[:0:0]
		for _, v := range vs {
			if v.shape {
				shaped = append(shaped, v)
			}
		}
		if len(shaped) > 0 {
			vs = shaped
		}
		can, cost, line := true, 1, 0 // cost floor 1: the baseline format rejects empty counts
		for _, v := range vs {
			can = can && v.can
			if v.cost > cost {
				cost = v.cost
			}
			if line == 0 || v.line < line {
				line = v.line
			}
		}
		verdict := "can inline"
		if !can {
			verdict = "cannot inline"
		}
		sites[key+": "+verdict] = gate.Site{Count: cost, Line: line}
	}
	return sites, nil
}

// inlineGateFor builds a gate.Config judging pins over patterns; inlineGate
// is the in-tree instance, tests substitute fixture pins.
func inlineGateFor(pins []InlinePin, patterns []string) gate.Config {
	return gate.Config{
		Name:       InlineGate.Name,
		BuildFlags: []string{"-gcflags=-m=2"},
		Patterns:   patterns,
		Normalize:  normalizeInlineFor(pins),
		Header: []string{
			"mosaiclint inlinegate verdict baseline.",
			"One line per pinned hot function: cost<TAB>file: func: verdict.",
			"Pins are declared in internal/lint/inlinegate.go (InlinePins).",
			"Regenerate after a reviewed hot-function change: go run ./cmd/mosaiclint -update-inline",
		},
		UpdateFlag: "-update-inline",
	}
}

func inlineGate() gate.Config {
	return inlineGateFor(InlinePins, HotPathPackages)
}

// InlineSites compiles the gate patterns in dir and returns the pinned
// functions' current verdicts.
func InlineSites(dir string) (gate.Sites, error) {
	return inlineGate().Compile(dir)
}

// WriteInlineBaseline regenerates the baseline file from the current tree.
func WriteInlineBaseline(dir, path string) error {
	return inlineGate().Update(dir, path)
}

// inlinePinDiags checks the pin contract against one compile's sites:
// every pin must be present with a "can inline" verdict. baseline supplies
// the cost the pin used to have, for the delta in the flip message.
func inlinePinDiags(pins []InlinePin, baseline, current gate.Sites) []Diagnostic {
	var out []Diagnostic
	for _, pin := range pins {
		key := pin.File + ": " + pin.Func
		if bad, flipped := current[key+": cannot inline"]; flipped {
			msg := fmt.Sprintf("pinned hot function no longer inlines: %s (%s): inliner cost %d", pin.Func, pin.Why, bad.Count)
			if was, ok := baseline[key+": can inline"]; ok {
				msg += fmt.Sprintf(", was %d (+%d)", was.Count, bad.Count-was.Count)
			}
			out = append(out, Diagnostic{
				Pos:      token.Position{Filename: pin.File, Line: bad.Line},
				Analyzer: InlineGate.Name,
				ID:       InlineGate.ID,
				Message:  msg + "; split the slow path into a called helper or update InlinePins",
			})
		} else if _, ok := current[key+": can inline"]; !ok {
			out = append(out, Diagnostic{
				Pos:      token.Position{Filename: pin.File},
				Analyzer: InlineGate.Name,
				ID:       InlineGate.ID,
				Message:  fmt.Sprintf("pinned hot function %s not found in the inliner's report; renamed or deleted — update InlinePins", pin.Func),
			})
		}
	}
	return out
}

// RunInlineGate runs the full gate from the module root dir against the
// baseline at path: the pin contract (verdicts stay "can inline") plus the
// baseline diff (inliner cost must not grow unreviewed).
func RunInlineGate(dir, path string) (regressions []Diagnostic, removed []string, err error) {
	res, err := inlineGate().Run(dir, path)
	if err != nil {
		return nil, nil, err
	}
	regressions = inlinePinDiags(InlinePins, res.Baseline, res.Current)
	for _, r := range res.Regressions {
		if !r.Known {
			// A new key is a verdict flip; inlinePinDiags already reported it
			// with the cost delta.
			continue
		}
		file, rest, _ := strings.Cut(r.Key, ": ")
		regressions = append(regressions, Diagnostic{
			Pos:      token.Position{Filename: file, Line: r.Line},
			Analyzer: InlineGate.Name,
			ID:       InlineGate.ID,
			Message: fmt.Sprintf("inlining headroom shrank: %s: cost %d, baseline has %d; trim the function or bank it with -update-inline",
				rest, r.Count, r.BaseCount),
		})
	}
	return regressions, res.Removed, nil
}
