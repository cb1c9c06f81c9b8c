// Command bench is the repository benchmark. It runs four paper-artifact
// workloads through the public mosaic API, times them from outside, and
// checks every simulated output against committed goldens. A separate
// traced run splits one representative cell's cost over the simulator's
// layers. README.md describes the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash bench/run.sh --workload fig6-gups --seed 1 --seconds 18 --trace 0
//	bash bench/run.sh -o run.json                        # all four workloads
//	bash bench/run.sh -trace trace.json -o traced.json   # the traced run
//	bash bench/run.sh -compare run1.json run2.json
//
// Each workload runs in a fresh child process. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics; the exit code is nonzero when any output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line flags.
type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        string
	out          string
	updateGolden bool
	compare      bool
	child        bool
}

// traced reports whether -trace asks for the traced run, and spansPath the
// file its spans go to ("" for none).
func (o options) traced() bool { return o.trace != "" && o.trace != "0" }

func (o options) spansPath() string {
	if o.trace == "1" || !o.traced() {
		return ""
	}
	return o.trace
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 18, "least time an untraced run spends in timed passes")
	fs.StringVar(&o.trace, "trace", "0", `"1" runs the traced run instead of the timed one; a value other than "0" or "1" also names the file its spans are written to`)
	fs.StringVar(&o.out, "o", "", "write the full report (env and per-pass samples) to this file")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "rewrite this seed's golden digests from the run")
	fs.BoolVar(&o.compare, "compare", false, "compare the two reports given as arguments")
	fs.BoolVar(&o.child, "child", false, "run one workload in this process and print its result as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare a.json b.json")
			return 2
		}
		a, err := readReport(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		b, err := readReport(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		return compareReports(a, b, stdout)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q\n", fs.Args())
		return 2
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	if o.workload != "" {
		if _, err := workloadNamed(o.workload); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		names = []string{o.workload}
	}
	if o.child {
		return runChild(o, stdout, stderr)
	}
	return runParent(o, names, stdout, stderr)
}

// runChild runs one workload in this process and prints its result.
func runChild(o options, stdout, stderr io.Writer) int {
	w, err := workloadNamed(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	want := ""
	if !o.updateGolden {
		g, err := goldens(o.seed)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		want = g[w.name]
	}
	var res result
	if o.traced() {
		res, err = traceRun(w, o.seed, want)
	} else {
		res, err = measure(w, o.seed, o.seconds, want)
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runParent runs each workload in a child process, one at a time, prints
// the results and writes the requested files.
func runParent(o options, names []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rep := report{Env: newEnv(o.seed, o.seconds, o.traced()), Workloads: map[string]result{}}
	envJSON, err := json.Marshal(rep.Env)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	line := resultLine{Correct: true, Metrics: map[string]lineMetric{}}
	traces := map[string]*traceDump{}
	digests := map[string]string{}
	traceFlag := "0"
	if o.traced() {
		traceFlag = "1"
	}
	for _, name := range names {
		args := []string{"-child", "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", traceFlag}
		if o.updateGolden {
			args = append(args, "-update-golden")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "%s: child run failed: %v\n", name, err)
			return 1
		}
		var res result
		if err := json.Unmarshal(out, &res); err != nil {
			fmt.Fprintf(stderr, "%s: child result: %v\n", name, err)
			return 1
		}
		traces[name], res.Trace = res.Trace, nil
		digests[name] = res.Digest
		rep.Workloads[name] = res
		printResult(stdout, res)

		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			line.Metrics[k] = lineMetric{Value: m.Value, Unit: m.Unit}
		}
	}

	if p := o.spansPath(); p != "" {
		if err := writeJSON(p, struct {
			Env       env                   `json:"env"`
			Workloads map[string]*traceDump `json:"workloads"`
		}{rep.Env, traces}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if o.updateGolden {
		if err := writeGolden(o.seed, digests); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// printResult writes a workload's result for people to read.
func printResult(w io.Writer, r result) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "%s: %s (%d outputs checked, %d failed)\n", r.Workload, verdict, r.Attempted, r.Failed)
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, spec := range list {
			m, ok := r.Metrics[spec.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-28s %14.4f %-11s", spec.Name, m.Value, m.Unit)
			if n := len(m.Samples); n > 0 {
				fmt.Fprintf(w, " median of %d, quartiles %.4f–%.4f", n, quantile(m.Samples, 0.25), quantile(m.Samples, 0.75))
			}
			fmt.Fprintln(w)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
