package invariant

import (
	"strings"
	"testing"
)

func TestReport(t *testing.T) {
	var r Report
	if !r.OK() || r.Err() != nil {
		t.Fatal("fresh report should be clean")
	}
	if !r.Check(true) {
		t.Fatal("Check(true) must report true")
	}
	if r.Check(false) {
		t.Fatal("Check(false) must report false")
	} else {
		r.Failf("rule.one", "bad value %d", 7)
	}
	r.Violatef("rule.two", "second")
	if r.OK() {
		t.Fatal("report with violations claims OK")
	}
	if r.Checks() != 3 {
		t.Fatalf("Checks = %d, want 3: each Check and each Violatef counts once", r.Checks())
	}
	vs := r.Violations()
	if len(vs) != 2 || vs[0].Rule != "rule.one" || vs[1].Rule != "rule.two" {
		t.Fatalf("violations = %v", vs)
	}
	err := r.Err()
	if err == nil {
		t.Fatal("Err() = nil with violations recorded")
	}
	for _, want := range []string{"2 invariant violation(s)", "rule.one: bad value 7", "rule.two: second"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Err() = %q, missing %q", err, want)
		}
	}
}

func TestMonotone(t *testing.T) {
	var r Report
	m := NewMonotone("clock")
	m.Observe(&r, 3)
	m.Observe(&r, 3)
	m.Observe(&r, 10)
	if !r.OK() {
		t.Fatalf("non-decreasing sequence flagged: %v", r.Err())
	}
	m.Observe(&r, 9)
	if r.OK() {
		t.Fatal("decrease not flagged")
	}
	if v := r.Violations()[0]; v.Rule != "clock" || !strings.Contains(v.Detail, "10 to 9") {
		t.Fatalf("violation = %v", v)
	}
}
