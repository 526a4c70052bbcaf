package main

import (
	"strings"
	"testing"
)

var lowerTen = metricDef{Name: "host_ns_per_vm", Unit: "ns", Better: "lower", Bound: 0.10}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name     string
		old, new []float64
		want     string
	}{
		{"same", steady, steady, "ok"},
		{"within the bound", steady, scale(steady, 1.08), "ok"},
		{"past the bound", steady, scale(steady, 1.15), "REGRESSED"},
		{"better", steady, scale(steady, 0.5), "ok"},
		// Quartiles 80 and 120 around 100: a 40% spread against a 10% bound.
		{"noisy and overlapping", []float64{70, 80, 80, 90, 100, 100, 110, 120, 120, 130}, steady, "unresolved"},
		{"noisy but every run better", []float64{170, 180, 180, 190, 200, 200, 210, 220, 220, 230}, steady, "better (every run)"},
		{"noisy and every run worse", steady, []float64{170, 180, 180, 190, 200, 200, 210, 220, 220, 230}, "REGRESSED (every run)"},
	} {
		if got := verdict(lowerTen, newSide(c.old), newSide(c.new)); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	higher := metricDef{Name: "place_per_s", Better: "higher", Bound: 0.10}
	if got := verdict(higher, newSide(steady), newSide(scale(steady, 0.8))); got != "REGRESSED" {
		t.Errorf("20%% fewer per second on a higher-is-better metric: %q", got)
	}
}

func TestClaimNeedsNineTenthsOfTenPairsAndMoreThanTheSpread(t *testing.T) {
	old := []float64{100, 104, 96, 100, 102, 98, 100, 103, 97, 100}
	for _, c := range []struct {
		name string
		new  []float64
		want string
	}{
		{"wins every pair clearly", scale(old, 0.8), "claim met"},
		{"wins 8 of 10", append(scale(old[:8], 0.8), 200, 200), "claim NOT met: won 8"},
		{"wins every pair by less than the old spread", scale(old, 0.99), "within the old side's own spread"},
		{"too few pairs", scale(old[:5], 0.5), "claim not judged"},
	} {
		got := claimVerdict(lowerTen, newSide(old), newSide(c.new))
		if !strings.Contains(got, c.want) {
			t.Errorf("%s: %q, want it to contain %q", c.name, got, c.want)
		}
	}
}

func scale(vals []float64, by float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v * by
	}
	return out
}
