package metrics

import (
	"math"
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
	var w TimeWeighted
	w.Set(0, 5)
	if got := w.Average(10); got != 5 {
		t.Errorf("constant average = %g", got)
	}
	if w.Peak() != 5 {
		t.Errorf("peak = %g", w.Peak())
	}
}

func TestTimeWeightedSteps(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 0)
	w.Set(10, 100) // 0 for [0,10), 100 for [10,20)
	if got := w.Average(20); got != 50 {
		t.Errorf("average = %g, want 50", got)
	}
	if w.Peak() != 100 {
		t.Errorf("peak = %g", w.Peak())
	}
}

func TestTimeWeightedLateStart(t *testing.T) {
	var w TimeWeighted
	w.Set(100, 10)
	// Averaging window starts at the first Set.
	if got := w.Average(200); got != 10 {
		t.Errorf("average = %g, want 10", got)
	}
	if got := w.Average(100); got != 0 {
		t.Errorf("zero-length window average = %g", got)
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var w TimeWeighted
	if w.Average(10) != 0 || w.Peak() != 0 {
		t.Error("empty signal should be zero")
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	var w TimeWeighted
	w.Set(10, 1)
	defer func() {
		if recover() == nil {
			t.Error("backwards time should panic")
		}
	}()
	w.Set(5, 2)
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
