// Package stats provides the running statistics and table rendering
// shared by the experiment harness. Every table and figure in
// EXPERIMENTS.md is rendered through this package so that outputs are
// uniform and machine-parsable.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Running accumulates a stream of float64 samples and reports mean and
// standard deviation, as the paper does for its ten-run averages.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe adds a sample.
func (r *Running) Observe(x float64) {
	if r.n == 0 {
		r.min, r.max = x, x
	} else {
		r.min = math.Min(r.min, x)
		r.max = math.Max(r.max, x)
	}
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N is the number of samples observed.
func (r *Running) N() int { return r.n }

// Mean is the sample mean (zero with no samples).
func (r *Running) Mean() float64 { return r.mean }

// Stddev is the sample standard deviation (zero with fewer than 2 samples).
func (r *Running) Stddev() float64 {
	if r.n < 2 {
		return 0
	}
	return math.Sqrt(r.m2 / float64(r.n-1))
}

// Min returns the smallest sample (zero with no samples).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample (zero with no samples).
func (r *Running) Max() float64 { return r.max }

// Table accumulates rows of cells and renders them aligned or as CSV.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v. A row with more cells
// than the table has headers is clamped to the header count, with the last
// kept cell replaced by an error marker — a malformed row must never crash
// the experiment harness mid-run.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	if n := len(t.headers); n > 0 && len(row) > n {
		extra := len(row) - n
		row = row[:n]
		row[n-1] = fmt.Sprintf("!ERR(+%d cells)", extra)
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// NumRows reports the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// Defense in depth alongside the AddRow clamp: a cell beyond the
			// header count renders unpadded rather than indexing out of range.
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (headers first). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// PercentChange returns the percent reduction from base to x, matching the
// "Difference (%)" column of Table 4: positive means x is smaller (better).
// A zero base with a nonzero x has no meaningful percentage; it returns NaN
// ("no observation"), which the JSON results layer renders as null rather
// than poisoning the encoder with an infinity.
func PercentChange(base, x float64) float64 {
	if base == 0 {
		if x == 0 {
			return 0
		}
		return math.NaN()
	}
	return (base - x) / base * 100
}
