// Command benchtraj is the repository's one perf judge. With no argument
// it prints the performance trajectory: one row per committed
// BENCH_<pr>.json — the metric that PR claimed ("workload/metric"), the
// parent's and the change's median of it over the interleaved runs the file
// holds (each side the harness's results.json), the change in the metric's
// better direction, which BENCHMARK.json names, and how many seed-matched
// pairs the change won (ties count for neither side). The pairs verb runs
// the procedure that produces such a file (pairs.go). Neither judges a
// timing: the verdict is `bash bench/run.sh -compare [-claim]`, whose
// output each file carries and pairs turns into an exit status.
//
// Usage (from the repository root):
//
//	go run ./scripts/ci/benchtraj
//	go run ./scripts/ci/benchtraj pairs <base-ref> <out.json> [<workload>/<metric>]
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// results is the part of the harness's results.json the trajectory reads.
type results struct {
	Runs []struct {
		Workload string
		Seed     int64
		Trace    bool
		Metrics  map[string]struct{ Value float64 }
	}
}

// benchFile is one committed BENCH_<pr>.json.
type benchFile struct {
	PR             int
	Claim          string
	Parent, Change results
}

func main() {
	err := fmt.Errorf("usage: benchtraj [pairs <base-ref> <out.json> [<workload>/<metric>]]")
	switch args := os.Args[1:]; {
	case len(args) == 0:
		err = trajectory(os.Stdout, ".")
	case args[0] == "pairs" && (len(args) == 3 || len(args) == 4):
		err = judge{head: ".", bench: runBench}.run(args[1], args[2], strings.Join(args[3:], ""))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtraj:", err)
		os.Exit(1)
	}
}

// trajectory prints one row per BENCH_*.json under root, in PR order.
func trajectory(w io.Writer, root string) error {
	files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no BENCH_*.json in %s; run from the repository root", root)
	}
	var bm struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &bm); err != nil {
		return err
	}
	higher := map[string]bool{}
	for _, m := range bm.EndToEnd {
		higher[m.Name] = m.Better == "higher"
	}
	var rows []benchFile
	for _, name := range files {
		var b benchFile
		if err := readJSON(name, &b); err != nil {
			return err
		}
		rows = append(rows, b)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].PR < rows[j].PR })
	fmt.Fprintf(w, "%-4s %-30s %12s %12s %8s  %s\n", "PR", "claim", "parent", "change", "better", "pairs won")
	for _, b := range rows {
		workload, metric, ok := strings.Cut(b.Claim, "/")
		if !ok {
			fmt.Fprintf(w, "%-4d %-30s\n", b.PR, "(no claim)")
			continue
		}
		par, chg := b.Parent.bySeed(workload, metric), b.Change.bySeed(workload, metric)
		won, pairs := 0, 0
		for seed, o := range par {
			n, both := chg[seed]
			if !both {
				continue
			}
			pairs++
			if n != o && (n > o) == higher[metric] {
				won++
			}
		}
		po, pn := median(par), median(chg)
		gain := (po - pn) / po
		if higher[metric] {
			gain = -gain
		}
		fmt.Fprintf(w, "%-4d %-30s %12.5g %12.5g %+7.1f%%  %d of %d\n", b.PR, b.Claim, po, pn, 100*gain, won, pairs)
	}
	return nil
}

// readJSON decodes the file at path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// bySeed returns the untraced runs' values of one metric on one workload,
// keyed by seed.
func (r results) bySeed(workload, metric string) map[int64]float64 {
	out := map[int64]float64{}
	for _, run := range r.Runs {
		if m, ok := run.Metrics[metric]; ok && run.Workload == workload && !run.Trace {
			out[run.Seed] = m.Value
		}
	}
	return out
}

// median returns the median of the map's values (0 for none).
func median(m map[int64]float64) float64 {
	var v []float64
	for _, x := range m {
		v = append(v, x)
	}
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}
