// Package metrics provides the small statistical toolkit the simulator
// and the experiment harness share: streaming summaries, time-weighted
// averages, and an ASCII bar renderer used to print the paper's figures
// in the terminal.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Summary accumulates a stream of observations (Welford's algorithm) and
// reports count, mean, min, max and standard deviation.
type Summary struct {
	n         int
	mean, m2  float64
	min, max  float64
	populated bool
}

// Observe adds one sample.
func (s *Summary) Observe(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if !s.populated || x < s.min {
		s.min = x
	}
	if !s.populated || x > s.max {
		s.max = x
	}
	s.populated = true
}

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest sample (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// StdDev returns the sample standard deviation (0 for < 2 samples).
func (s *Summary) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// TimeWeighted integrates a piecewise-constant signal over time and
// reports its time average and peak. Call Set whenever the signal changes;
// time must be non-decreasing.
type TimeWeighted struct {
	lastT    float64
	value    float64
	integral float64
	peak     float64
	started  bool
	startT   float64
}

// Set records that the signal takes the given value from time t onward.
func (w *TimeWeighted) Set(t, value float64) {
	if !w.started {
		w.started = true
		w.startT = t
	} else {
		if t < w.lastT {
			panic(fmt.Sprintf("metrics: time went backwards: %g < %g", t, w.lastT))
		}
		w.integral += w.value * (t - w.lastT)
	}
	w.lastT = t
	w.value = value
	if value > w.peak {
		w.peak = value
	}
}

// Average returns the time average of the signal up to time end.
func (w *TimeWeighted) Average(end float64) float64 {
	if !w.started || end <= w.startT {
		return 0
	}
	integral := w.integral + w.value*(end-w.lastT)
	return integral / (end - w.startT)
}

// Peak returns the largest value the signal took.
func (w *TimeWeighted) Peak() float64 { return w.peak }

// Bar is one labeled value of a chart.
type Bar struct {
	Label string
	Value float64
}

// RenderBars draws a horizontal ASCII bar chart; it is how cmd/risasim
// prints the paper's figures. Values are scaled to width characters;
// the numeric value is appended using the format verb (e.g. "%.1f").
func RenderBars(title string, bars []Bar, width int, format string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	labelWidth := 0
	for _, bar := range bars {
		if len(bar.Label) > labelWidth {
			labelWidth = len(bar.Label)
		}
	}
	var max float64
	for _, bar := range bars {
		if bar.Value > max {
			max = bar.Value
		}
	}
	for _, bar := range bars {
		n := 0
		if max > 0 {
			n = int(math.Round(bar.Value / max * float64(width)))
		}
		fmt.Fprintf(&b, "  %-*s |%s%s "+format+"\n",
			labelWidth, bar.Label,
			strings.Repeat("█", n), strings.Repeat(" ", width-n), bar.Value)
	}
	return b.String()
}
