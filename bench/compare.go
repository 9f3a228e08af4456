package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// failShareSlack is how much the failed share of operations may grow, in
// absolute terms, before it counts as a regression.
const failShareSlack = 0.001

// judge applies one metric's bound to a baseline (a) and a candidate (b).
// worseBy is how far the candidate's median moved in the bad direction, as
// a share of the baseline's. When the two sides' min–max ranges overlap by
// more than the bound the runs cannot tell the sides apart and the verdict
// is unresolved, whatever the medians say.
func judge(def metricDef, a, b Summary) (verdict string, worseBy float64) {
	if a.Median == 0 {
		return verdictUnresolved, 0
	}
	worseBy = (b.Median - a.Median) / math.Abs(a.Median)
	if def.Better == "higher" {
		worseBy = -worseBy
	}
	overlap := math.Min(a.Max, b.Max) - math.Max(a.Min, b.Min)
	switch {
	case overlap/math.Abs(a.Median) > def.Bound:
		return verdictUnresolved, worseBy
	case worseBy > def.Bound:
		return verdictRegressed, worseBy
	}
	return verdictOK, worseBy
}

func failShare(w *WorkloadResult) float64 {
	return ratio(float64(w.Failed), float64(w.Attempted))
}

// simChanged reports whether the simulated outputs of a workload differ
// between two documents: its output digest, or any sim metric both carry.
func simChanged(a, b *WorkloadResult) bool {
	if a.OutputSHA256 != "" && b.OutputSHA256 != "" && a.OutputSHA256 != b.OutputSHA256 {
		return true
	}
	for name := range simMetrics {
		va, okA := a.PerLayer[name]
		vb, okB := b.PerLayer[name]
		if okA && okB && va != vb {
			return true
		}
	}
	return false
}

// compareDocs prints one row per workload × end-to-end metric and returns
// the number of regressions.
func compareDocs(man *manifest, a, b *Document, w io.Writer) int {
	regressed := 0
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *WorkloadResult
		for _, cand := range b.Workloads {
			if cand.Name == wa.Name {
				wb = cand
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-16s missing from B\n", wa.Name)
			continue
		}
		for _, def := range man.EndToEnd {
			sa, okA := wa.EndToEnd[def.Name]
			sb, okB := wb.EndToEnd[def.Name]
			if !okA || !okB {
				continue // a traced-only document carries no end-to-end numbers
			}
			verdict, worseBy := judge(def, sa, sb)
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				wa.Name, def.Name, sa.Median, sb.Median, worseBy*100, def.Bound*100, verdict)
		}
		fa, fb := failShare(wa), failShare(wb)
		verdict := verdictOK
		if fb > fa+failShareSlack || (wa.Correct && !wb.Correct) {
			verdict = verdictRegressed
			regressed++
		}
		fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %9s %7s  %s\n", wa.Name, "fail_share", fa, fb, "", "+0.001", verdict)
		if simChanged(wa, wb) {
			fmt.Fprintf(w, "%-16s sim-output-changed: a simulated result differs, so this is a model change, not a speed change\n", wa.Name)
		}
	}
	return regressed
}

func compareFiles(man *manifest, pathA, pathB string, w io.Writer) int {
	a, err := readDocument(pathA)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	b, err := readDocument(pathB)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	if n := compareDocs(man, a, b, w); n > 0 {
		fmt.Fprintf(w, "%d regressed\n", n)
		return 1
	}
	return 0
}
