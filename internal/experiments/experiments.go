// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment pairs the paper's reported values (or
// qualitative claims, for the log-scale figures) with values measured on
// this repository's simulator, Monte Carlo, analytic models and — for the
// loopback experiment — real UDP sockets.
//
// cmd/lanbench runs experiments from the command line; the root package's
// benchmarks time them; EXPERIMENTS.md archives one full run.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/simrun"
	"blastlan/internal/stats"
)

// Options tunes an experiment run.
type Options struct {
	// Seed makes stochastic experiments reproducible.
	Seed int64
	// Quick reduces trial counts by roughly an order of magnitude so the
	// full suite runs in seconds (tests and smoke runs).
	Quick bool
	// Workers bounds the DES sampling and per-point parallelism: 0 means
	// GOMAXPROCS, 1 forces the sequential path. Results are bit-identical
	// at every setting — trials are seeded per index and merged in index
	// order, and each figure point writes only its own row.
	Workers int
}

// Result is a rendered experiment outcome.
type Result struct {
	ID     string
	Title  string
	Paper  string // what the paper reports, for side-by-side comparison
	Header []string
	Rows   [][]string
	// Preformatted blocks (timelines) printed after the table.
	Preformatted []string
	Notes        []string
	// Skipped marks experiments whose substrate is unavailable (e.g. no
	// UDP sockets); Notes carry the reason.
	Skipped bool
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID    string
	Title string
	// Paper summarises the expectation the measured values are judged
	// against.
	Paper string
	Run   func(Options) (*Result, error)
}

// registry holds all experiments in presentation order.
var registry []*Experiment

func register(e *Experiment) { registry = append(registry, e) }

// All returns every experiment in presentation order.
func All() []*Experiment {
	out := make([]*Experiment, len(registry))
	copy(out, registry)
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (*Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("experiments: unknown id %q (have: %s)", id, strings.Join(ids, ", "))
}

// Render formats a result as aligned text.
func Render(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Paper)
	}
	if r.Skipped {
		b.WriteString("SKIPPED\n")
	}
	if len(r.Header) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		line := func(cells []string) {
			for i, c := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
			b.WriteString("\n")
		}
		line(r.Header)
		for i, w := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", w))
		}
		b.WriteString("\n")
		for _, row := range r.Rows {
			line(row)
		}
	}
	for _, p := range r.Preformatted {
		b.WriteString("\n")
		b.WriteString(p)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// RenderCSV formats the result's table as CSV (header + rows), suitable
// for external plotting of the figure series. Preformatted blocks and
// notes are omitted.
func RenderCSV(r *Result) string {
	var b strings.Builder
	esc := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteString("\n")
	}
	if len(r.Header) > 0 {
		esc(r.Header)
	}
	for _, row := range r.Rows {
		esc(row)
	}
	return b.String()
}

// ms renders a duration in milliseconds with two decimals — the paper's
// unit everywhere.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// pct renders a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.0f%%", 100*x) }

// ratio renders a/b with two decimals.
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "∞"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// desSample runs n independent DES transfers through the parallel sampler,
// varying the seed per trial, and accumulates the sender elapsed times.
// Failed trials are counted, not accumulated. Output is identical at any
// worker count.
func desSample(cfg core.Config, opt simrun.Options, n, workers int) (acc stats.Durations, failures int, err error) {
	st, err := simrun.SampleWorkers(cfg, opt, n, workers)
	return st.Elapsed, st.Failures, err
}

// forEachPoint evaluates n independent figure/table points, fanning them
// across workers (0 = GOMAXPROCS). Each point must write only its own
// output slot, so the rendered artifact is identical regardless of
// parallelism. The first error by point index is returned.
func forEachPoint(workers, n int, point func(i int) error) error {
	return simrun.Pool(n, workers, func(_, i int) error { return point(i) })
}

// one runs a single deterministic (error-free) DES transfer and returns the
// sender's elapsed time.
func one(cfg core.Config, opt simrun.Options) (time.Duration, error) {
	res, err := simrun.Transfer(cfg, opt)
	if err != nil {
		return 0, err
	}
	if res.Failed() {
		return 0, fmt.Errorf("experiments: transfer failed: %v / %v", res.SendErr, res.RecvErr)
	}
	return res.Send.Elapsed, nil
}
