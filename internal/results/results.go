// Package results defines the machine-readable experiment output format:
// a schema-versioned JSON document holding the run's configuration, its
// final metrics, any sampled time series, and the structured event log.
// Every experiment driver writes one of these next to its text table, and
// cmd/mosaicstat pretty-prints or diffs them — so a perf PR proves its win
// by diffing two results files instead of eyeballing stdout.
package results

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mosaic/internal/obs"
	"mosaic/internal/stats"
)

// SchemaVersion identifies the results-file layout. Readers reject files
// with a newer major version than they understand; bump it whenever a field
// changes meaning (adding fields is backward compatible and does not).
const SchemaVersion = 1

// Number is a float64 that encodes non-finite values (NaN, ±Inf) as JSON
// null instead of failing the encoder, and decodes null back to NaN.
// Sampler windows with no observations and percent-changes from a zero base
// flow through results files as null cells.
type Number float64

// MarshalJSON encodes non-finite values as null.
func (n Number) MarshalJSON() ([]byte, error) {
	f := float64(n)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(f)
}

// UnmarshalJSON decodes null as NaN.
func (n *Number) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*n = Number(math.NaN())
		return nil
	}
	var f float64
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	*n = Number(f)
	return nil
}

// Series is one sampled time series: Refs[i] is the reference index at the
// end of window i, Values[i] that window's value (null = no observation).
type Series struct {
	Name   string   `json:"name"`
	Refs   []uint64 `json:"refs"`
	Values []Number `json:"values"`
}

// File is one experiment's machine-readable output.
type File struct {
	SchemaVersion int               `json:"schema_version"`
	Experiment    string            `json:"experiment"`
	Config        map[string]any    `json:"config,omitempty"`
	Metrics       map[string]Number `json:"metrics"`
	Series        []Series          `json:"series,omitempty"`
	Events        []obs.Event       `json:"events,omitempty"`
}

// New creates an empty results file for the named experiment.
func New(experiment string) *File {
	return &File{
		SchemaVersion: SchemaVersion,
		Experiment:    experiment,
		Config:        make(map[string]any),
		Metrics:       make(map[string]Number),
	}
}

// SetMetric records one final metric value.
func (f *File) SetMetric(name string, v float64) {
	f.Metrics[name] = Number(v)
}

// Metric returns a metric's value and whether it is present.
func (f *File) Metric(name string) (float64, bool) {
	v, ok := f.Metrics[name]
	return float64(v), ok
}

// AddSnapshot flattens a metrics snapshot into the file under an optional
// "prefix." namespace.
func (f *File) AddSnapshot(prefix string, snap obs.Snapshot) {
	for _, nv := range snap.Flatten() {
		name := nv.Name
		if prefix != "" {
			name = prefix + "." + name
		}
		f.Metrics[name] = Number(nv.Value)
	}
}

// AddSampler appends sampled series, each name placed under an optional
// "prefix." namespace.
func (f *File) AddSampler(prefix string, series []obs.Series) {
	for _, sr := range series {
		name := sr.Name
		if prefix != "" {
			name = prefix + "." + name
		}
		vals := make([]Number, len(sr.Values))
		for i, v := range sr.Values {
			vals[i] = Number(v)
		}
		f.Series = append(f.Series, Series{Name: name, Refs: sr.Refs, Values: vals})
	}
}

// AddEvents appends events, stamping each that has no scope with the
// given one (empty leaves scopes untouched).
func (f *File) AddEvents(scope string, events []obs.Event) {
	for _, e := range events {
		if scope != "" && e.Scope == "" {
			e.Scope = scope
		}
		f.Events = append(f.Events, e)
	}
}

// Write marshals the file as indented JSON to path, creating parent
// directories as needed.
func Write(path string, f *File) error {
	if f.SchemaVersion == 0 {
		f.SchemaVersion = SchemaVersion
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("results: marshal %s: %w", path, err)
	}
	data = append(data, '\n')
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("results: %w", err)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return nil
}

// Read parses and validates a results file.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("results: parse %s: %w", path, err)
	}
	if f.SchemaVersion < 1 || f.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("results: %s has schema version %d, this tool understands 1..%d",
			path, f.SchemaVersion, SchemaVersion)
	}
	if f.Metrics == nil {
		f.Metrics = make(map[string]Number)
	}
	return &f, nil
}

// DiffRow is one metric's before/after comparison. DeltaPct is the percent
// change from A to B — positive means B is larger — and is NaN when A is
// zero or the metric is missing on either side.
type DiffRow struct {
	Metric   string
	A, B     float64
	InA, InB bool
	DeltaPct float64
}

// Diff compares the metrics of two results files, returning one row per
// metric in the union of their names, sorted.
func Diff(a, b *File) []DiffRow {
	names := make(map[string]struct{}, len(a.Metrics)+len(b.Metrics))
	for n := range a.Metrics {
		names[n] = struct{}{}
	}
	for n := range b.Metrics {
		names[n] = struct{}{}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	rows := make([]DiffRow, 0, len(sorted))
	for _, n := range sorted {
		av, aok := a.Metrics[n]
		bv, bok := b.Metrics[n]
		row := DiffRow{Metric: n, A: float64(av), B: float64(bv), InA: aok, InB: bok}
		if aok && bok {
			// PercentChange reports reduction as positive; a diff reads more
			// naturally as growth-positive, so flip the sign. Adding +0
			// normalizes the -0 the flip produces for unchanged metrics.
			row.DeltaPct = -stats.PercentChange(row.A, row.B) + 0
		} else {
			row.DeltaPct = math.NaN()
		}
		rows = append(rows, row)
	}
	return rows
}

// cell renders a float for the text tables: null for non-finite.
func cell(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4f", v)
}

// Format pretty-prints one results file: metadata, metrics table, and a
// summary line per series.
func (f *File) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "experiment: %s (schema v%d)\n", f.Experiment, f.SchemaVersion)
	if len(f.Config) > 0 {
		keys := make([]string, 0, len(f.Config))
		for k := range f.Config {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%v", k, f.Config[k])
		}
		fmt.Fprintf(&b, "config: %s\n", strings.Join(parts, " "))
	}
	b.WriteByte('\n')

	tb := stats.NewTable("", "metric", "value")
	names := make([]string, 0, len(f.Metrics))
	for n := range f.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tb.AddRow(n, cell(float64(f.Metrics[n])))
	}
	b.WriteString(tb.String())

	if len(f.Series) > 0 {
		b.WriteByte('\n')
		st := stats.NewTable("sampled series", "name", "points", "first_ref", "last_ref")
		for _, s := range f.Series {
			first, last := uint64(0), uint64(0)
			if len(s.Refs) > 0 {
				first, last = s.Refs[0], s.Refs[len(s.Refs)-1]
			}
			st.AddRow(s.Name, len(s.Values), first, last)
		}
		b.WriteString(st.String())
	}
	if len(f.Events) > 0 {
		fmt.Fprintf(&b, "\nevents: %d recorded (in the file's events array)\n", len(f.Events))
	}
	return b.String()
}

// FormatDiff renders diff rows as an aligned table. Metrics absent on one
// side show "-" there and a null delta.
func FormatDiff(aName, bName string, rows []DiffRow) string {
	tb := stats.NewTable(
		fmt.Sprintf("diff: A=%s  B=%s  (delta%% = (B-A)/A x 100)", aName, bName),
		"metric", "a", "b", "delta%")
	for _, r := range rows {
		aCell, bCell := "-", "-"
		if r.InA {
			aCell = cell(r.A)
		}
		if r.InB {
			bCell = cell(r.B)
		}
		tb.AddRow(r.Metric, aCell, bCell, cell(r.DeltaPct))
	}
	return tb.String()
}

// Sanitize maps an arbitrary label (workload name, design name) to a
// metric-name segment: lowercase, with every run of non-alphanumerics
// collapsed to one underscore and a leading "w" prefixed when the result
// would start with a digit.
func Sanitize(label string) string {
	var b strings.Builder
	prevUnder := true // also trims leading separators
	for _, r := range strings.ToLower(label) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			prevUnder = false
		default:
			if !prevUnder {
				b.WriteByte('_')
				prevUnder = true
			}
		}
	}
	s := strings.TrimSuffix(b.String(), "_")
	if s == "" {
		return "unnamed"
	}
	if s[0] >= '0' && s[0] <= '9' {
		s = "w" + s
	}
	return s
}
