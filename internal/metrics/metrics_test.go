package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.n != 0 || s.Mean() != 0 || s.StdDev() != 0 {
		t.Error("empty summary should be zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(x)
	}
	if s.n != 8 {
		t.Errorf("n = %d", s.n)
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %g", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %g/%g", s.Min(), s.Max())
	}
	// Sample std dev of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev()-want) > 1e-12 {
		t.Errorf("StdDev = %g, want %g", s.StdDev(), want)
	}
}

func TestSummaryNegativeValues(t *testing.T) {
	var s Summary
	s.Observe(-5)
	s.Observe(5)
	if s.Min() != -5 || s.Max() != 5 || s.Mean() != 0 {
		t.Errorf("min/max/mean = %g/%g/%g", s.Min(), s.Max(), s.Mean())
	}
}

func TestSummarySingleSample(t *testing.T) {
	var s Summary
	s.Observe(42)
	if s.StdDev() != 0 {
		t.Error("single sample has no deviation")
	}
	if s.Min() != 42 || s.Max() != 42 {
		t.Error("single sample is both min and max")
	}
}

// Property: mean is always within [min, max]. Inputs are kept within a
// sane magnitude — Welford is not designed for sums overflowing float64.
func TestSummaryMeanBoundedProperty(t *testing.T) {
	f := func(xs []int32) bool {
		if len(xs) == 0 {
			return true
		}
		var s Summary
		for _, x := range xs {
			s.Observe(float64(x))
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeWeightedConstantSignal(t *testing.T) {
	w := NewIntegrator(1)
	w.Set(0, []float64{5})
	if got := w.Average(0, 10); got != 5 {
		t.Errorf("constant average = %g", got)
	}
	if w.Peak(0) != 5 {
		t.Errorf("peak = %g", w.Peak(0))
	}
}

func TestTimeWeightedSteps(t *testing.T) {
	w := NewIntegrator(1)
	w.Set(0, []float64{0})
	w.Set(10, []float64{100}) // 0 for [0,10), 100 for [10,20)
	if got := w.Average(0, 20); got != 50 {
		t.Errorf("average = %g, want 50", got)
	}
	if w.Peak(0) != 100 {
		t.Errorf("peak = %g", w.Peak(0))
	}
}

func TestTimeWeightedLateStart(t *testing.T) {
	w := NewIntegrator(1)
	w.Set(100, []float64{10})
	// Averaging window starts at the first Set.
	if got := w.Average(0, 200); got != 10 {
		t.Errorf("average = %g, want 10", got)
	}
	if got := w.Average(0, 100); got != 0 {
		t.Errorf("zero-length window average = %g", got)
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	w := NewIntegrator(1)
	if w.Average(0, 10) != 0 || w.Peak(0) != 0 {
		t.Error("empty signal should be zero")
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	w := NewIntegrator(1)
	w.Set(10, []float64{1})
	defer func() {
		if recover() == nil {
			t.Error("backwards time should panic")
		}
	}()
	w.Set(5, []float64{2})
}

// refTimeWeighted is the one-signal integrator the simulator used before
// Integrator, kept as the oracle: each signal its own clock.
type refTimeWeighted struct {
	lastT    float64
	value    float64
	integral float64
	peak     float64
	started  bool
	startT   float64
}

func (w *refTimeWeighted) Set(t, value float64) {
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

func (w *refTimeWeighted) Average(end float64) float64 {
	if !w.started || end <= w.startT {
		return 0
	}
	integral := w.integral + w.value*(end-w.lastT)
	return integral / (end - w.startT)
}

// TestIntegratorMatchesPerSignalOracle plays random event sequences —
// runs of same-instant changes, a late first Set, the empty run, values
// below zero and signals that stay put — into one Integrator over six
// signals and into six oracle integrators, and requires bit-identical
// averages (at the last instant and beyond it) and peaks.
func TestIntegratorMatchesPerSignalOracle(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		w := NewIntegrator(n)
		var ref [n]refTimeWeighted
		events := rng.Intn(40) // 0: the empty run
		now := 0.0
		if trial%2 == 1 {
			now = float64(rng.Intn(1000)) // a late first Set
		}
		for e := 0; e < events; e++ {
			if rng.Intn(3) > 0 { // else: another change at this instant
				now += float64(rng.Intn(50)) + rng.Float64()
			}
			var vals [n]float64
			for i := range vals {
				switch rng.Intn(4) {
				case 0:
					vals[i] = ref[i].value // unchanged
				case 1:
					vals[i] = -rng.Float64() * 10
				default:
					vals[i] = rng.Float64() * 100
				}
				ref[i].Set(now, vals[i])
			}
			w.Set(now, vals[:])
		}
		for _, end := range []float64{now, now + 1, now + 12.375, 0} {
			for i := range ref {
				if got, want := w.Average(i, end), ref[i].Average(end); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d signal %d: Average(%g) = %v, oracle %v", trial, i, end, got, want)
				}
			}
		}
		for i := range ref {
			if got, want := w.Peak(i), ref[i].peak; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d signal %d: Peak = %v, oracle %v", trial, i, got, want)
			}
		}
	}
}

// TestIntegratorBackwardsPanicsAfterSameInstant: a run of same-instant
// changes does not loosen the clock check.
func TestIntegratorBackwardsPanicsAfterSameInstant(t *testing.T) {
	w := NewIntegrator(2)
	w.Set(3, []float64{1, 2})
	w.Set(7, []float64{2, 3})
	w.Set(7, []float64{4, 1})
	defer func() {
		if recover() == nil {
			t.Error("backwards time should panic")
		}
	}()
	w.Set(6.5, []float64{0, 0})
}

func TestIntegratorRefusesMissingValues(t *testing.T) {
	w := NewIntegrator(3)
	defer func() {
		if recover() == nil {
			t.Error("two values for three signals should panic")
		}
	}()
	w.Set(0, []float64{1, 2})
}

func TestRenderBars(t *testing.T) {
	out := RenderBars("Figure X", []Bar{
		{"NULB", 255},
		{"RISA", 7},
	}, 10, "%.0f")
	if !strings.Contains(out, "Figure X") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "NULB") || !strings.Contains(out, "RISA") {
		t.Error("missing labels")
	}
	if !strings.Contains(out, "255") || !strings.Contains(out, "7") {
		t.Error("missing values")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Errorf("expected 3 lines, got %d", len(lines))
	}
	// The max bar fills the width.
	if !strings.Contains(lines[1], strings.Repeat("█", 10)) {
		t.Error("max bar should fill the width")
	}
}

func TestRenderBarsZeroValues(t *testing.T) {
	out := RenderBars("Z", []Bar{{"a", 0}, {"b", 0}}, 5, "%.0f")
	if strings.Contains(out, "█") {
		t.Error("zero values should draw no bars")
	}
}
