package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// BENCHMARK.json repeats the harness's own tables for the driver; the two
// must not drift apart.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	var f benchmarkJSON
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", f.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n harness %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n harness %+v", f.PerLayer, perLayer)
	}
	var listed []workloadDef
	for _, w := range workloads {
		if !w.extra {
			listed = append(listed, w)
		}
	}
	if len(f.Workloads) != len(listed) {
		t.Fatalf("%d workloads in the file, %d in the harness that are not extra", len(f.Workloads), len(listed))
	}
	for i, w := range listed {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file %q (%q), harness %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
	}
}

// The driver refuses names and units outside these shapes and a why over
// 200 characters.
func TestNamesFitTheDriversLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not fit", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("unit %q of %s does not fit", d.Unit, d.Name)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("why of %s is %d characters", w.Name, len(w.Why))
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(perLayer), len(endToEnd))
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g", d.Name, d.Bound)
		}
	}
}
