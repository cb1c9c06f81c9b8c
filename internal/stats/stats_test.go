package stats

import (
	"math"
	"strings"
	"testing"
)

func TestRunning(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Stddev() != 0 || r.N() != 0 {
		t.Error("zero-value Running should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Observe(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if got := r.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	// Sample stddev of this classic dataset is sqrt(32/7).
	if got, want := r.Stddev(), math.Sqrt(32.0/7.0); math.Abs(got-want) > 1e-12 {
		t.Errorf("Stddev = %v, want %v", got, want)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min=%v Max=%v", r.Min(), r.Max())
	}
}

func TestRunningSingleSample(t *testing.T) {
	var r Running
	r.Observe(3.5)
	if r.Mean() != 3.5 || r.Stddev() != 0 || r.Min() != 3.5 || r.Max() != 3.5 {
		t.Errorf("single sample: mean=%v sd=%v min=%v max=%v", r.Mean(), r.Stddev(), r.Min(), r.Max())
	}
}

func TestTableString(t *testing.T) {
	tb := NewTable("Demo", "Workload", "Misses")
	tb.AddRow("graph500", 12345)
	tb.AddRow("gups", 7)
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "Workload") {
		t.Errorf("missing title or header:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "x")
	tb.AddRow(3.14159)
	tb.AddRow(42.0)
	out := tb.String()
	if !strings.Contains(out, "3.14") {
		t.Errorf("float not rounded to 2 places:\n%s", out)
	}
	if !strings.Contains(out, "42") || strings.Contains(out, "42.00") {
		t.Errorf("integral float should render without decimals:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("x,y", `say "hi"`)
	csv := tb.CSV()
	want := "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestPercentChange(t *testing.T) {
	cases := []struct {
		base, x, want float64
	}{
		{100, 80, 20},
		{100, 120, -20},
		{100, 100, 0},
		{0, 0, 0},
	}
	for _, tc := range cases {
		if got := PercentChange(tc.base, tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("PercentChange(%v,%v) = %v, want %v", tc.base, tc.x, got, tc.want)
		}
	}
	// Zero base with nonzero x has no meaningful percentage: NaN, never an
	// infinity that would poison JSON encoding downstream.
	if got := PercentChange(0, 5); !math.IsNaN(got) {
		t.Errorf("PercentChange(0,5) = %v, want NaN", got)
	}
	if got := PercentChange(0, -5); !math.IsNaN(got) {
		t.Errorf("PercentChange(0,-5) = %v, want NaN", got)
	}
}

func TestTableOverflowRowDoesNotPanic(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("x", "y", "z", "w") // two more cells than headers
	tb.AddRow("p")                // short rows remain fine
	out := tb.String()            // must not panic
	if !strings.Contains(out, "!ERR(+2 cells)") {
		t.Errorf("overflow row not error-marked:\n%s", out)
	}
	if strings.Contains(out, "z") || strings.Contains(out, "w") {
		t.Errorf("overflow cells should be clamped away:\n%s", out)
	}
	csv := tb.CSV() // must not panic either
	if !strings.Contains(csv, "!ERR(+2 cells)") {
		t.Errorf("CSV lost the error marker:\n%s", csv)
	}
}

func TestTableNoHeaders(t *testing.T) {
	tb := NewTable("", []string{}...)
	tb.AddRow("x", "y")
	out := tb.String() // headerless tables render unpadded, no panic
	if !strings.Contains(out, "x") || !strings.Contains(out, "y") {
		t.Errorf("headerless table dropped cells:\n%s", out)
	}
}
