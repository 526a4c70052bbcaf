package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the figure is set by a handful of outliers.
const tailBeyond = 10

// tailLadder lists the tail percentiles highestTail chooses from, highest
// first, in tenths of a percent so the sample count beyond each is exact
// integer arithmetic.
var tailLadder = []int{999, 990, 950, 900, 750}

// quantile returns the p-th percentile (0..100) of an ascending slice by
// the nearest-rank rule; 0 for an empty slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1 // the epsilon absorbs 0.999*10000 = 9990.000000000001
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// highestTail returns the highest percentile of tailLadder that still has
// at least tailBeyond of the n samples beyond it, or 50 when none has.
func highestTail(n int) float64 {
	for _, p := range tailLadder {
		if n*(1000-p) >= tailBeyond*1000 {
			return float64(p) / 10
		}
	}
	return 50
}

// summary is the reporting rule for a timing: the median, the highest
// supported tail percentile, and the sample count behind both.
type summary struct {
	N      int
	Median float64
	TailP  float64 // which percentile Tail is
	Tail   float64
}

// summarize sorts vals in place and applies the reporting rule.
func summarize(vals []float64) summary {
	sort.Float64s(vals)
	p := highestTail(len(vals))
	return summary{N: len(vals), Median: quantile(vals, 50), TailP: p, Tail: quantile(vals, p)}
}

// median returns the middle of vals (mean of the two middles for an even
// count) without reordering the caller's slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile by the exclusive method
// Python's statistics.quantiles(values, n=4) uses, which is the spread
// the acceptance rule is stated in. Fewer than two values have no spread.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		if n == 1 {
			return vals[0], vals[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// geomean returns the geometric mean of the positive entries of vals; 0
// when there are none. Averaging ratios-to-a-baseline this way keeps one
// 30×-slower cell from hiding the others or being hidden by them.
func geomean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
