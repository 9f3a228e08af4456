// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness builds the simulated testbed it needs,
// runs the workload, and returns a structured result that renders as a
// paper-style table (cmd/reproduce prints them; bench_test.go wraps them
// as benchmarks; EXPERIMENTS.md records paper-vs-measured).
//
// Every harness that draws randomness, sizes its samples or builds a DuT
// takes an Env: the run-wide seed, the worker count its independent
// trials fan out on, the Scale (Quick keeps unit-test latency, Full runs
// the publication-quality sample counts) and an optional telemetry
// collector. The package keeps no mutable state of its own, so harnesses
// on different Envs may run concurrently.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Scale selects sample counts.
type Scale int

const (
	// Quick is sized for tests and smoke runs.
	Quick Scale = iota
	// Full is sized for report-quality numbers.
	Full
)

func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// pick returns q under Quick and f under Full.
func (s Scale) pick(q, f int) int {
	if s == Full {
		return f
	}
	return q
}

// Table is a printable experiment result.
type Table struct {
	ID     string // experiment id, e.g. "F5" or "T3"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	maxPad := 0
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, wd := range widths {
		if wd > maxPad {
			maxPad = wd
		}
	}
	// One shared run of spaces covers every cell's padding, and rows render
	// into one reused byte buffer — the previous implementation called
	// strings.Repeat per cell plus a []string+Join per row, which dominated
	// allocation counts when cmd/reproduce prints the full table set.
	spaces := strings.Repeat(" ", maxPad)
	buf := make([]byte, 0, 128)
	printRow := func(cells []string) {
		buf = buf[:0]
		for i, c := range cells {
			if i > 0 {
				buf = append(buf, ' ', ' ')
			}
			buf = append(buf, c...)
			if i < len(widths) && len(c) < widths[i] {
				buf = append(buf, spaces[:widths[i]-len(c)]...)
			}
		}
		for len(buf) > 0 && buf[len(buf)-1] == ' ' {
			buf = buf[:len(buf)-1]
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
