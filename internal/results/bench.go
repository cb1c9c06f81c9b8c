package results

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// BenchResult is one parsed `go test -bench` result line.
type BenchResult struct {
	Name        string  `json:"name"`
	N           int64   `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds the b.ReportMetric custom columns (Mrefs/s, MB/s,
	// reduction-%, …) keyed by unit, so throughput comparisons survive
	// into BENCH_*.json.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Metric returns a custom metric by unit name.
func (b BenchResult) Metric(unit string) (float64, bool) {
	v, ok := b.Metrics[unit]
	return v, ok
}

// ParseGoBench extracts benchmark results from `go test -bench` output.
// Lines that are not benchmark results (package headers, PASS, ok) are
// skipped. It tolerates the optional -benchmem columns and records any
// custom b.ReportMetric columns under Metrics.
func ParseGoBench(r io.Reader) ([]BenchResult, error) {
	var out []BenchResult
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		br := BenchResult{Name: fields[0], N: n}
		// Remaining fields come in (value, unit) pairs.
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				br.NsPerOp = v
				ok = true
			case "B/op":
				br.BytesPerOp = v
			case "allocs/op":
				br.AllocsPerOp = v
			default:
				if br.Metrics == nil {
					br.Metrics = make(map[string]float64)
				}
				br.Metrics[unit] = v
			}
		}
		if ok {
			out = append(out, br)
		}
	}
	return out, sc.Err()
}

// BenchFile is the BENCH_obs.json layout: schema-versioned like the
// experiment results so trend tooling can validate what it reads.
type BenchFile struct {
	SchemaVersion int           `json:"schema_version"`
	Benchmarks    []BenchResult `json:"benchmarks"`
}
