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

// Check counts one check and reports whether cond holds. It takes no
// message, so a passing check formats and allocates nothing: the caller
// describes a failure with Failf, whose arguments are boxed only then.
func (r *Report) Check(cond bool) bool {
	r.checks++
	return cond
}

// Failf records a violation of rule found by the last Check.
func (r *Report) Failf(rule, format string, args ...any) {
	r.violations = append(r.violations, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// Violatef records a violation of rule as one failed check.
func (r *Report) Violatef(rule, format string, args ...any) {
	r.checks++
	r.Failf(rule, format, args...)
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
