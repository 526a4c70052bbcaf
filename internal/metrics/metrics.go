// Package metrics provides the small statistical toolkit the simulator
// and the experiment harness share: streaming summaries, an integrator of
// time-weighted averages and peaks, and an ASCII bar renderer used to
// print the paper's figures in the terminal.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Summary accumulates a stream of observations (Welford's algorithm) and
// reports count, mean, min, max and standard deviation.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Observe adds one sample.
func (s *Summary) Observe(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if s.n == 1 || x < s.min {
		s.min = x
	}
	if s.n == 1 || x > s.max {
		s.max = x
	}
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

// Integrator integrates piecewise-constant signals that all change at the
// same instants — one clock, one dt per change — and reports each one's
// time average and peak (from 0). Set takes every signal's value at each
// change; time must not decrease. A Set at an unchanged instant adds no area.
type Integrator struct {
	started       bool
	startT, lastT float64
	sig           []signal
}

type signal struct{ value, integral, peak float64 } // integral: area up to lastT

// NewIntegrator returns an integrator over n signals.
func NewIntegrator(n int) Integrator { return Integrator{sig: make([]signal, n)} }

// Set records that signal i takes values[i] from time t onward.
func (w *Integrator) Set(t float64, values []float64) {
	if !w.started {
		w.started, w.startT, w.lastT = true, t, t
	} else if t < w.lastT {
		panic(fmt.Sprintf("metrics: time went backwards: %g < %g", t, w.lastT))
	}
	dt := t - w.lastT
	w.lastT = t
	for i := range w.sig {
		s, v := &w.sig[i], values[i]
		s.integral, s.value = s.integral+s.value*dt, v
		if v > s.peak {
			s.peak = v
		}
	}
}

// Average returns the time average of signal i up to time end.
func (w *Integrator) Average(i int, end float64) float64 {
	if !w.started || end <= w.startT {
		return 0
	}
	return (w.sig[i].integral + w.sig[i].value*(end-w.lastT)) / (end - w.startT)
}

// Peak returns the largest value signal i took.
func (w *Integrator) Peak(i int) float64 { return w.sig[i].peak }

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
