package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// minPairs is the fewest interleaved pairs a claimed gain may rest on.
const minPairs = 10

// side is one results file's values of one metric on one workload, in
// run order.
type side struct {
	vals           []float64
	median, q1, q3 float64
}

func newSide(vals []float64) side {
	q1, q3 := quartiles(vals)
	return side{vals: vals, median: median(vals), q1: q1, q3: q3}
}

// spread is the distance between the quartiles as a share of the median.
func (s side) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// worseBy returns how much worse b reads than a as a share of a, positive
// when worse, for a metric whose better direction is given.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every value of b reads better than every
// value of a.
func allBetter(better string, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worseBy(better, x, y) >= 0 {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// verdict judges one (workload, metric) pairing by the benchmark's bound.
// Where either side's run-to-run spread is wider than the bound the
// medians cannot settle it: the pairing is unresolved, not unchanged,
// unless every run of one side beats every run of the other.
func verdict(d metricDef, old, new side) string {
	worse := worseBy(d.Better, old.median, new.median)
	if old.spread() > d.Bound || new.spread() > d.Bound {
		switch {
		case allBetter(d.Better, old.vals, new.vals):
			return "better (every run)"
		case allBetter(d.Better, new.vals, old.vals):
			return "REGRESSED (every run)"
		}
		return "unresolved"
	}
	if worse > d.Bound {
		return "REGRESSED"
	}
	return "ok"
}

// claimVerdict applies the rule for a claimed gain to runs paired in
// order: the change must win at least nine tenths of all pairs run, ties
// counting for neither side, over at least minPairs pairs, and the
// medians must differ by more than the spread between the old side's own
// runs (the distance between its quartiles).
func claimVerdict(d metricDef, old, new side) string {
	pairs := min(len(old.vals), len(new.vals))
	wins := 0
	for i := 0; i < pairs; i++ {
		if worseBy(d.Better, old.vals[i], new.vals[i]) < 0 {
			wins++
		}
	}
	gain := -worseBy(d.Better, old.median, new.median)
	switch {
	case pairs < minPairs:
		return fmt.Sprintf("claim not judged: %d pairs, need %d", pairs, minPairs)
	case float64(wins) < 0.9*float64(pairs):
		return fmt.Sprintf("claim NOT met: won %d of %d pairs, need nine tenths", wins, pairs)
	case gain*old.median <= old.q3-old.q1:
		return fmt.Sprintf("claim NOT met: medians differ by %.4g, within the old side's own spread %.4g", gain*old.median, old.q3-old.q1)
	}
	return fmt.Sprintf("claim met: won %d of %d pairs, median better by %.1f%%", wins, pairs, gain*100)
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	return f, json.Unmarshal(b, &f)
}

// endToEndValues collects, per workload and end-to-end metric, the values
// of the file's untraced runs in run order.
func endToEndValues(f resultsFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// compareFiles prints one row per workload and end-to-end metric: both
// sides' medians and quartiles, the change, the bound and the verdict.
// claim, "workload/metric", is additionally judged by the pairs rule.
func compareFiles(w io.Writer, oldPath, newPath, claim string) error {
	oldF, err := readResults(oldPath)
	if err != nil {
		return err
	}
	newF, err := readResults(newPath)
	if err != nil {
		return err
	}
	for _, side := range []struct {
		name string
		h    fingerprint
	}{{"old", oldF.Host}, {"new", newF.Host}} {
		fmt.Fprintf(w, "%s host: %d cpus (GOMAXPROCS %d), %s, %s, data on %s; probes when it ran: fsync p50 %.1f us, spin %.3f ns\n",
			side.name, side.h.NProc, side.h.GOMAXPROCS, side.h.CPUModel, side.h.GoVersion, side.h.DataFS, side.h.FsyncUSP50, side.h.SpinNS)
	}
	if o, n := oldF.Host, newF.Host; o.NProc != n.NProc || o.GOMAXPROCS != n.GOMAXPROCS || o.CPUModel != n.CPUModel || o.GoVersion != n.GoVersion || o.DataFS != n.DataFS {
		fmt.Fprintln(w, "DIFFERENT BOXES: the timing rows below compare the boxes, not the commits")
	}
	oldV, newV := endToEndValues(oldF), endToEndValues(newF)
	if claim != "" {
		wl, metric, _ := strings.Cut(claim, "/")
		if len(oldV[wl][metric]) == 0 || len(newV[wl][metric]) == 0 {
			return fmt.Errorf("-claim %q: want workload/metric, an end-to-end metric both files hold (e.g. %s/%s)", claim, workloads[0].Name, endToEnd[1].Name)
		}
	}
	fmt.Fprintf(w, "%-14s %-15s %12s [%11s, %11s] %12s [%11s, %11s] %8s %6s  %s\n",
		"workload", "metric", "old median", "q1", "q3", "new median", "q1", "q3", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			o, n := newSide(oldV[wl.Name][d.Name]), newSide(newV[wl.Name][d.Name])
			if len(o.vals) == 0 || len(n.vals) == 0 {
				continue
			}
			v := verdict(d, o, n)
			if claim == wl.Name+"/"+d.Name {
				v += "; " + claimVerdict(d, o, n)
			}
			fmt.Fprintf(w, "%-14s %-15s %12.5g [%11.5g, %11.5g] %12.5g [%11.5g, %11.5g] %+7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, o.median, o.q1, o.q3, n.median, n.q1, n.q3,
				worseBy(d.Better, o.median, n.median)*100, d.Bound*100, v)
		}
	}
	return nil
}
