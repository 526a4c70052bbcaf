package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestScaleLadder(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{DefaultScaleMaxRacks, []int{18, 72, 288, 1152, 4608, 16384}},
		{16384, []int{18, 72, 288, 1152, 4608, 16384}},
		{4608, []int{18, 72, 288, 1152, 4608}},
		{1152, []int{18, 72, 288, 1152}},
		{288, []int{18, 72, 288}},
		{100, []int{18, 72, 100}},
		{19, []int{18, 19}},
		{18, []int{18}},
		{4, []int{4}},
	}
	for _, c := range cases {
		got := ScaleLadder(c.max)
		if len(got) != len(c.want) {
			t.Errorf("ScaleLadder(%d) = %v, want %v", c.max, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ScaleLadder(%d) = %v, want %v", c.max, got, c.want)
				break
			}
		}
	}
}

// TestScaleLadderGeometry pins the ladder's shape for any maxRacks: it
// starts at the paper's 18 racks, quadruples rung to rung, ends exactly
// at maxRacks, and is strictly increasing — so the default ladder tops
// out at 16384 racks (≈ 100k boxes) in six rungs.
func TestScaleLadderGeometry(t *testing.T) {
	for _, max := range []int{19, 72, 100, 288, 1152, 4608, 16384, 20000} {
		ladder := ScaleLadder(max)
		if ladder[0] != 18 {
			t.Errorf("ScaleLadder(%d) starts at %d, want 18", max, ladder[0])
		}
		if last := ladder[len(ladder)-1]; last != max {
			t.Errorf("ScaleLadder(%d) ends at %d", max, last)
		}
		for i := 1; i < len(ladder); i++ {
			if ladder[i] <= ladder[i-1] {
				t.Errorf("ScaleLadder(%d) not strictly increasing: %v", max, ladder)
			}
			if i < len(ladder)-1 && ladder[i] != 4*ladder[i-1] {
				t.Errorf("ScaleLadder(%d) rung %d = %d, want 4×%d", max, i, ladder[i], ladder[i-1])
			}
		}
	}
	if n := len(ScaleLadder(DefaultScaleMaxRacks)); n != 6 {
		t.Errorf("default ladder has %d rungs, want 6", n)
	}
}

// TestScaleTraceLoadScaling drives the trace generator across the whole
// default ladder (light per-rack density to stay fast) and checks the
// fixed-operating-point contract at every rung: VM count proportional to
// racks, and the arrival horizon roughly flat — rate scaled by the same
// factor as the load, all the way to the 16384-rack point.
func TestScaleTraceLoadScaling(t *testing.T) {
	s := DefaultSetup()
	const vmsPerRack = 2
	base, err := s.scaleTrace(18, vmsPerRack)
	if err != nil {
		t.Fatal(err)
	}
	baseEnd := base.VMs[len(base.VMs)-1].Arrival
	for _, racks := range ScaleLadder(DefaultScaleMaxRacks) {
		tr, err := s.scaleTrace(racks, vmsPerRack)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.VMs) != racks*vmsPerRack {
			t.Errorf("racks=%d: %d VMs, want %d", racks, len(tr.VMs), racks*vmsPerRack)
		}
		end := tr.VMs[len(tr.VMs)-1].Arrival
		// ~(racks/18)× the VMs at ~(racks/18)× the rate: the horizon
		// stays within a small factor of the 18-rack point even at 910×
		// the load (the sampled interarrivals add jitter, hence 3×).
		if end > 3*baseEnd || baseEnd > 3*end {
			t.Errorf("racks=%d: horizon %d diverges from 18-rack horizon %d", racks, end, baseEnd)
		}
		if tr.Name != fmt.Sprintf("scale-%dr", racks) {
			t.Errorf("racks=%d: trace name %q", racks, tr.Name)
		}
	}
}

func TestScaleTraceScalesWithRacks(t *testing.T) {
	s := DefaultSetup()
	small, err := s.scaleTrace(18, 40)
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.scaleTrace(72, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(small.VMs) != 18*40 || len(big.VMs) != 72*40 {
		t.Fatalf("trace lengths %d/%d, want %d/%d", len(small.VMs), len(big.VMs), 18*40, 72*40)
	}
	// 4x the VMs at 4x the arrival rate: the traces should span a similar
	// stretch of simulated time, keeping the operating point fixed.
	smallEnd := small.VMs[len(small.VMs)-1].Arrival
	bigEnd := big.VMs[len(big.VMs)-1].Arrival
	if bigEnd > 2*smallEnd || smallEnd > 2*bigEnd {
		t.Errorf("trace horizons diverge: 18 racks end at t=%d, 72 racks at t=%d", smallEnd, bigEnd)
	}
}

func TestRunScaleSmallSweep(t *testing.T) {
	sweep, err := DefaultSetup().RunScale([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(sweep.Points))
	}
	for _, p := range sweep.Points {
		if len(p.Results) != len(Algorithms) {
			t.Errorf("racks=%d: %d algorithm results, want %d", p.Racks, len(p.Results), len(Algorithms))
		}
		for _, alg := range Algorithms {
			r := p.Results[alg]
			if r == nil {
				t.Fatalf("racks=%d: no result for %s", p.Racks, alg)
			}
			if r.Scheduled+r.Dropped != p.VMs {
				t.Errorf("racks=%d %s: %d+%d outcomes, want %d VMs",
					p.Racks, alg, r.Scheduled, r.Dropped, p.VMs)
			}
			if p.PerVMDecision(alg) <= 0 {
				t.Errorf("racks=%d %s: non-positive per-VM decision time", p.Racks, alg)
			}
		}
	}
	out := sweep.Render()
	for _, want := range []string{"racks=2", "racks=4", "Decision-time growth", "RISA-BF"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}
