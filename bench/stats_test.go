package main

import (
	"math"
	"testing"
)

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50},       // nothing has ten beyond it
		{39, 50},      // p75 would have 9.75
		{40, 75},      // p75 has exactly 10
		{100, 90},     // p90 has 10, p95 only 5
		{200, 95},     // p95 has 10
		{999, 95},     // p99 has 9.99
		{1000, 99},    // p99 has 10
		{9999, 99},    // p99.9 has 9.999
		{10000, 99.9}, // p99.9 has 10
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsMedianTailAndCount(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[len(vals)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	s := summarize(vals)
	if s.N != 1000 || s.Median != 500 || s.TailP != 99 || s.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v, want n=1000 median=500 p99=990", s)
	}
	if e := summarize(nil); e.N != 0 || e.Median != 0 || e.Tail != 0 {
		t.Errorf("summarize(nil) = %+v, want zeros", e)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {25, 10}, {50, 20}, {51, 30}, {99, 40}, {100, 40}} {
		if got := quantile(s, c.p); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestMedianEvenAndOdd(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median(odd) = %g, want 5", got)
	}
	if in[0] != 9 {
		t.Errorf("median reordered its argument: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %g, want 2.5", got)
	}
}

// The expected values are Python's:
// statistics.quantiles([2, 4, 4, 5, 7, 9, 10, 12, 15, 20], n=4) == [4.0, 8.0, 12.75]
// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q3 := quartiles([]float64{20, 2, 4, 15, 4, 5, 12, 7, 9, 10})
	if q1 != 4 || q3 != 12.75 {
		t.Errorf("quartiles(10 values) = %g, %g; want 4, 12.75", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %g, %g; want 0.75, 2.25", q1, q3)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1,100) = %g, want 10", got)
	}
	// One 30x-slower cell moves the geomean of four by 30^(1/4), not by 30/4.
	if got, want := geomean([]float64{2, 2, 2, 60}), 2*math.Pow(30, 0.25); math.Abs(got-want) > 1e-12 {
		t.Errorf("geomean(2,2,2,60) = %g, want %g", got, want)
	}
	if got := geomean([]float64{0, -1}); got != 0 {
		t.Errorf("geomean of no positive values = %g, want 0", got)
	}
}
