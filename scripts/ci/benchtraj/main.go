// Command benchtraj prints the repository's performance trajectory on one
// screen: one row per committed BENCH_<pr>.json — the metric that PR
// claimed, the parent's and the change's median of it over the interleaved
// runs the file holds, the change in the metric's better direction, and
// how many of the seed-matched parent/change pairs the change won (ties
// count for neither side).
//
// Usage (from the repository root):
//
//	go run ./scripts/ci/benchtraj
//
// A BENCH file is what a PR with a perf claim commits (ROADMAP item 18):
// both sides' merged bench results ("parent" and "change", each the
// harness's results.json) and the claim as "workload/metric". Which
// direction is better comes from BENCHMARK.json. The printer reports and
// never judges — the verdict is `bash bench/run.sh -compare -claim`, whose
// output each file carries — so it exits non-zero only for a file it
// cannot read.
package main

import (
	"encoding/json"
	"fmt"
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
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		fmt.Fprintln(os.Stderr, "benchtraj: no BENCH_*.json here; run from the repository root")
		os.Exit(2)
	}
	var bm struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
	}
	if err := readJSON("BENCHMARK.json", &bm); err != nil {
		fmt.Fprintf(os.Stderr, "benchtraj: %v\n", err)
		os.Exit(2)
	}
	higher := map[string]bool{}
	for _, m := range bm.EndToEnd {
		higher[m.Name] = m.Better == "higher"
	}
	var rows []benchFile
	for _, name := range files {
		var b benchFile
		if err := readJSON(name, &b); err != nil {
			fmt.Fprintf(os.Stderr, "benchtraj: %v\n", err)
			os.Exit(2)
		}
		rows = append(rows, b)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].PR < rows[j].PR })
	fmt.Printf("%-4s %-30s %12s %12s %8s  %s\n", "PR", "claim", "parent", "change", "better", "pairs won")
	for _, b := range rows {
		workload, metric, ok := strings.Cut(b.Claim, "/")
		if !ok {
			fmt.Printf("%-4d %-30s\n", b.PR, "(no claim)")
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
		fmt.Printf("%-4d %-30s %12.5g %12.5g %+7.1f%%  %d of %d\n", b.PR, b.Claim, po, pn, 100*gain, won, pairs)
	}
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
