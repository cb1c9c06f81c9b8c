// Package invariant is the runtime half of the repository's correctness
// tooling (the static half is internal/lint). It provides a tiny reporting
// API plus one reusable tracker:
//
//   - Report collects violations instead of panicking, so one deep check
//     can surface every broken invariant at once and tests can assert that
//     a deliberately corrupted structure is in fact caught.
//   - Monotone checks a sequence never decreases — the Horizon LRU's ghost
//     threshold and the vm access clock are both monotone by construction.
//
// The deep checkers themselves (CheckInvariants methods) live inside the
// data-structure packages, where unexported state is visible: see
// alloc.Memory, buddy.Allocator, vm.System, and memsim.Simulator. Tests
// call them directly; memsim can also run them periodically during a
// simulation via Config.CheckEvery.
package invariant

import (
	"errors"
	"fmt"
	"strings"
)

// Violation is one broken invariant.
type Violation struct {
	// Rule names the invariant, e.g. "alloc.occupancy-bitmap".
	Rule string
	// Detail describes the observed inconsistency.
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Report accumulates violations from one or more checkers.
type Report struct {
	violations []Violation
	checks     int
}

// Violatef records a violation of rule.
func (r *Report) Violatef(rule, format string, args ...any) {
	r.checks++
	r.violations = append(r.violations, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// Checkf records a violation of rule unless cond holds, and reports cond.
func (r *Report) Checkf(cond bool, rule, format string, args ...any) bool {
	if !cond {
		r.Violatef(rule, format, args...) // Violatef counts the check
		return false
	}
	r.checks++
	return true
}

// Checks is the number of individual checks evaluated — telemetry for
// "how much did this invariant pass actually look at".
func (r *Report) Checks() int { return r.checks }

// OK reports whether no violation has been recorded.
func (r *Report) OK() bool { return len(r.violations) == 0 }

// Violations returns the recorded violations in order.
func (r *Report) Violations() []Violation { return r.violations }

// Err returns nil if the report is clean, and otherwise an error listing
// every violation, one per line.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s):", len(r.violations))
	for _, v := range r.violations {
		b.WriteString("\n\t")
		b.WriteString(v.String())
	}
	return errors.New(b.String())
}

// Monotone tracks a value that must never decrease across observations.
type Monotone struct {
	rule string
	seen bool
	last uint64
}

// NewMonotone creates a tracker reporting under the given rule name.
func NewMonotone(rule string) *Monotone { return &Monotone{rule: rule} }

// Observe records v, reporting a violation if it is below the previous
// observation.
func (m *Monotone) Observe(r *Report, v uint64) {
	if m.seen && v < m.last {
		r.Violatef(m.rule, "value decreased from %d to %d", m.last, v)
	}
	m.seen, m.last = true, v
}
