package obs

import (
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sync"
)

// Progress renders a single live status line, rewritten in place with a
// carriage return. It only writes when the destination is an interactive
// terminal, so redirected runs and CI logs stay clean. All methods are
// nil-safe: drivers that run quiet hold a nil *Progress.
//
// Unlike the rest of the package, Progress is safe for concurrent use:
// parallel sweep workers (internal/sweep) all report into the one live
// line, so Stepf and Done serialize on an internal mutex.
type Progress struct {
	mu    sync.Mutex
	w     io.Writer
	wrote bool
}

// NewProgress returns a Progress writing to stderr, or nil when stderr is
// not a terminal (or the caller asked for quiet output).
func NewProgress(enabled bool) *Progress {
	if !enabled || !isTerminal(os.Stderr) {
		return nil
	}
	return &Progress{w: os.Stderr}
}

// NewProgressTo returns a Progress writing to w unconditionally — the
// testing hook behind NewProgress's terminal gate. A nil writer yields a
// nil (still safe) Progress.
func NewProgressTo(w io.Writer) *Progress {
	if w == nil {
		return nil
	}
	return &Progress{w: w}
}

// isTerminal reports whether f is an interactive terminal (character
// device). Good enough for "suppress the progress line under redirection"
// without a terminfo dependency.
func isTerminal(f *os.File) bool {
	info, err := f.Stat()
	if err != nil {
		return false
	}
	return info.Mode()&os.ModeCharDevice != 0
}

// Stepf rewrites the live line; nil-safe and goroutine-safe.
func (p *Progress) Stepf(format string, args ...any) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Erase-to-end first so a shorter message fully replaces a longer one.
	fmt.Fprintf(p.w, "\r\x1b[K"+format, args...)
	p.wrote = true
}

// Done clears the live line so the next regular print starts clean;
// nil-safe and goroutine-safe.
func (p *Progress) Done() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.wrote {
		return
	}
	fmt.Fprint(p.w, "\r\x1b[K")
	p.wrote = false
}

// StepCounter renders a monotonic "<name>: point k/n done" progress line
// as concurrent sweep workers complete points. Each Step increments the
// count and rewrites the line under one lock, so rendered counts never go
// backwards no matter how workers interleave. The zero count is never
// rendered; a nil counter (quiet runs) ignores every call.
type StepCounter struct {
	mu    sync.Mutex
	p     *Progress
	name  string
	total int
	done  int
}

// StartCount begins a counted progress sequence of total points; nil-safe
// (a nil Progress yields a nil, still safe, counter).
func (p *Progress) StartCount(name string, total int) *StepCounter {
	if p == nil {
		return nil
	}
	return &StepCounter{p: p, name: name, total: total}
}

// Step records one completed point and rewrites the live line; nil-safe
// and goroutine-safe.
func (c *StepCounter) Step() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done++
	if c.name != "" {
		c.p.Stepf("%s: point %d/%d done", c.name, c.done, c.total)
		return
	}
	c.p.Stepf("point %d/%d done", c.done, c.total)
}

// Done is the number of points recorded so far; nil-safe.
func (c *StepCounter) Done() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// StartCPUProfile begins a CPU profile to the named file and returns a stop
// function that ends the profile and closes the file. Every cmd/* driver
// wires this to a -cpuprofile flag.
func StartCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: start cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
