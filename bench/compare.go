package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// report is one benchmark invocation as -o writes it.
type report struct {
	Env       env               `json:"env"`
	Workloads map[string]result `json:"workloads"`
}

func readReport(path string) (report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// errorRate is the share of checked outputs that failed.
func errorRate(r result) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// spread is the distance between the quartiles of a metric's samples, as a
// share of their median; 0 without samples.
func spread(m metric) float64 {
	if len(m.Samples) < 2 || m.Value == 0 {
		return 0
	}
	return (quantile(m.Samples, 0.75) - quantile(m.Samples, 0.25)) / m.Value
}

// compareReports prints, per workload, each end-to-end metric's median in
// a and b and the change against the metric's bound, then each per-layer
// metric's change for information. A change inside the bound is noise. A
// change beyond it is improved or REGRESSION, unless either run's samples
// spread wider than the bound: then the two medians cannot tell the change
// from noise, and it is unresolved. It returns the exit code: 0 when no
// metric regressed, 1 on a regression, 2 when the reports cannot be
// compared.
func compareReports(a, b report, out io.Writer) int {
	ea, eb := a.Env, b.Env
	ea.Revision, eb.Revision = "", ""
	if ea != eb {
		fmt.Fprintf(out, "refusing to compare reports from different environments:\n  %+v\n  %+v\n", a.Env, b.Env)
		return 2
	}
	fmt.Fprintf(out, "%s → %s\n", a.Env.Revision, b.Env.Revision)
	code := 0
	for _, w := range workloads() {
		ra, okA := a.Workloads[w.name]
		rb, okB := b.Workloads[w.name]
		if okA != okB {
			fmt.Fprintf(out, "%s: in only one report\n", w.name)
			code = 2
		}
		if !okA || !okB {
			continue
		}
		verdict := "noise"
		if errorRate(rb) > errorRate(ra) {
			verdict, code = "REGRESSION", max(code, 1)
		}
		fmt.Fprintf(out, "%-14s %-28s %12.4f → %-12.4f %-6s %s\n", w.name, "error_rate", errorRate(ra), errorRate(rb), "ratio", verdict)
		for _, spec := range endToEnd {
			ma, okA := ra.Metrics[spec.Name]
			mb, okB := rb.Metrics[spec.Name]
			if !okA || !okB {
				continue
			}
			delta := (mb.Value - ma.Value) / ma.Value
			worse := delta
			if spec.Better == "higher" {
				worse = -delta
			}
			verdict := "noise"
			switch {
			case spec.Name == "setup_s" && math.Abs(mb.Value-ma.Value) < setupFloorS:
			case math.Abs(worse) <= spec.Bound:
			case max(spread(ma), spread(mb)) > spec.Bound:
				verdict = "unresolved"
			case worse > spec.Bound:
				verdict, code = "REGRESSION", max(code, 1)
			default:
				verdict = "improved"
			}
			fmt.Fprintf(out, "%-14s %-28s %12.4f → %-12.4f %-6s %+7.2f%% (bound %.0f%%) %s\n",
				w.name, spec.Name, ma.Value, mb.Value, spec.Unit, 100*delta, 100*spec.Bound, verdict)
		}
		for _, spec := range perLayer {
			ma, okA := ra.Metrics[spec.Name]
			mb, okB := rb.Metrics[spec.Name]
			if okA && okB {
				fmt.Fprintf(out, "%-14s %-28s %12.4f → %-12.4f %s\n", w.name, spec.Name, ma.Value, mb.Value, spec.Unit)
			}
		}
	}
	return code
}
