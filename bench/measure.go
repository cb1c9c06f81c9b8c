package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Untraced-run shape: warmup untimed passes, which measure peak memory;
// then set-up, timed up to setupReps times, stopping once minSetups have
// run and setupBudget has been spent, and reported as the median; then
// timed passes until both minPasses and the requested seconds are reached.
// The set-up budget keeps a workload with seconds-long set-up
// (table4-btree) from spending most of its run on it, which would stretch
// a series of runs over more machine drift.
const (
	setupReps   = 21
	minSetups   = 3
	setupBudget = 2 * time.Second
	warmup      = 3
	minPasses   = 5
)

// memGCPercent is the collector setting of the warm-up passes, which
// measure max_rss_mb. At the default of 100 the heap may grow to twice
// its live size before a collection, so a pass's peak depends on where
// the collections happened to fall: a fig6-gups pass at 1M refs per point
// peaked at either about 172 or about 215 MB, steadily within a process
// but differently from process to process. At 10 the peak tracks what the
// simulation holds: fig6-gups read 150–151 MB in twenty runs. The timed
// passes run at the default, as a user's program would.
const memGCPercent = 10

// result is one workload run's report.
type result struct {
	Workload  string     `json:"workload"`
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Problems  []string   `json:"problems,omitempty"`
	Digest    string     `json:"digest"`
	Metrics   metricSet  `json:"metrics"`
	Trace     *traceDump `json:"trace,omitempty"`
}

// checker counts checked outputs and failures into a result. Each pass's
// digest must equal want: the golden digest for the seed, or, for a seed
// without a golden, the first pass's, so every later pass must repeat it.
type checker struct {
	want string
	res  *result
}

// check records one checked output and what was wrong with it, if anything.
func (c *checker) check(problems ...string) {
	c.res.Attempted++
	if len(problems) > 0 {
		c.res.Failed++
		c.res.Problems = append(c.res.Problems, problems...)
	}
	c.res.Correct = c.res.Failed == 0
}

// pass checks one pass's digest and invariants.
func (c *checker) pass(o outcome) {
	if c.want == "" {
		c.want = o.digest
	}
	c.same(o.digest, c.want, "pass digest", o.problems...)
}

// same checks that a simulated output equals its expected value.
func (c *checker) same(got, want, what string, problems ...string) {
	if got != want {
		problems = append(problems, fmt.Sprintf("%s %.12s, want %.12s", what, got, want))
	}
	c.check(problems...)
}

// measure is the untraced run: it times set-up, then whole passes of the
// workload's public call, and reports the end-to-end metrics.
func measure(w workload, seed uint64, seconds float64, want string) (result, error) {
	res := result{Workload: w.name, Metrics: metricSet{}}
	chk := checker{want: want, res: &res}
	// Memory is measured first, with the collector at memGCPercent from the
	// start, so the heap never grows far past what the simulation holds.
	// Measured after set-up at the default setting, some processes kept a
	// few megabytes more in every peak than others (table4-btree: 23.6
	// against 19.5 MB).
	gcPercent := debug.SetGCPercent(memGCPercent)
	refs, problems, err := w.simulatedRefs(seed)
	if err != nil {
		return res, err
	}
	chk.check(problems...)

	var rss []float64
	for i := 0; i < warmup; i++ {
		// Each pass starts like a fresh process: the last pass's garbage
		// collected and its memory returned to the OS, and the RSS peak
		// reset, so the peak is this pass's own.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return res, err
		}
		o, err := w.pass(seed)
		if err != nil {
			return res, err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return res, err
		}
		chk.pass(o)
		res.Digest = o.digest
		rss = append(rss, peak)
	}
	debug.SetGCPercent(gcPercent)

	var setups []float64
	var spent time.Duration
	for len(setups) < setupReps && (len(setups) < minSetups || spent < setupBudget) {
		// Like a fresh process, set-up gets its memory from the OS.
		debug.FreeOSMemory()
		d, err := w.setup(seed)
		if err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
		spent += d
	}

	var walls, cpus, rates []float64
	start := time.Now()
	for len(walls) < minPasses || time.Since(start).Seconds() < seconds {
		debug.FreeOSMemory()
		cpu0 := cpuSeconds()
		t0 := time.Now()
		o, err := w.pass(seed)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		if err != nil {
			return res, err
		}
		chk.pass(o)
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		rates = append(rates, refs/wall/1e6)
	}

	m := res.Metrics
	m.put("run_s", median(walls), walls)
	m.put("cpu_s", median(cpus), cpus)
	m.put("sim_mrefs_per_s", median(rates), rates)
	m.put("setup_s", median(setups), setups)
	m.put("max_rss_mb", median(rss), rss)
	return res, nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS resets the kernel's record of this process's peak resident
// set (VmHWM), so the next peakRSSMB covers only what runs in between.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS (max_rss_mb needs Linux /proc): %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64)
			return v * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// env is the environment a report was recorded in. Reports compare only
// when every field but Revision matches.
type env struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	GOARCH     string  `json:"goarch"`
	Revision   string  `json:"revision"`
	Workers    int     `json:"workers"`
	Seed       uint64  `json:"seed"`
	Warmup     int     `json:"warmup"`
	Passes     int     `json:"passes"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func newEnv(seed uint64, seconds float64, traced bool) env {
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Revision:   revision(),
		Workers:    workers,
		Seed:       seed,
		Warmup:     warmup,
		Passes:     minPasses,
		Seconds:    seconds,
		Traced:     traced,
	}
}

// revision is the VCS commit the binary was built from, marked -dirty for
// a modified tree; "unknown" outside a repository.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "-dirty"
		}
	}
	return rev + dirty
}
