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
	if !r.Checkf(true, "a", "never recorded") {
		t.Fatal("Checkf(true) must report true")
	}
	if r.Checkf(false, "rule.one", "bad value %d", 7) {
		t.Fatal("Checkf(false) must report false")
	}
	r.Violatef("rule.two", "second")
	if r.OK() {
		t.Fatal("report with violations claims OK")
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
