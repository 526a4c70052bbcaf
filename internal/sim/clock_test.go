package sim

import (
	"testing"
	"time"

	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/workload"
)

func TestSinceAgreesWithMonotonicClock(t *testing.T) {
	initClock()
	ref := time.Now()
	start := now()
	time.Sleep(30 * time.Millisecond)
	got := since(start)
	want := time.Since(ref)
	t.Logf("counter selected: %v, %.6g ns a tick", counterOn == 1, nsPerTick)
	if diff := (got - want).Abs(); diff > want/100 {
		t.Errorf("since read %v over an interval time.Since read as %v", got, want)
	}
}

func TestSinceClampsNegativeDelta(t *testing.T) {
	initClock()
	if d := since(now() + 1<<40); d != 0 {
		t.Errorf("an edge after now reads %v, want 0", d)
	}
}

func TestUseCounterSelection(t *testing.T) {
	for _, c := range []struct {
		invariant       bool
		counterNs, mono float64
		want            bool
	}{
		{true, 19, 40, true},
		{true, 40, 40, true},
		{false, 19, 40, false},  // the counter may drift with P- or C-states
		{true, 900, 40, false},  // RDTSC trapped by the host
		{false, 900, 40, false}, // both
	} {
		if got := useCounter(c.invariant, c.counterNs, c.mono); got != c.want {
			t.Errorf("useCounter(%v, %g, %g) = %v, want %v", c.invariant, c.counterNs, c.mono, got, c.want)
		}
	}
}

// A tick delta left unconverted, or converted twice, reads as more
// scheduling time than the run took on any counter not at 1 GHz.
func TestSchedulingTimeWithinWallTime(t *testing.T) {
	synthetic, err := workload.Synthetic(workload.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	traces := []*workload.Trace{synthetic}
	for _, subset := range workload.Subsets() {
		tr, err := workload.AzureLike(workload.AzureConfig{Subset: subset, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	for _, tr := range traces {
		for _, algo := range sched.Registered() {
			st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			sch, err := sched.New(algo, st)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(st, sch, Config{})
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			res, err := r.Run(tr)
			wall := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if res.SchedulingTime <= 0 || res.SchedulingTime > wall {
				t.Errorf("%s on %s: scheduling time %v, want in (0, %v]", algo, tr.Name, res.SchedulingTime, wall)
			}
		}
	}
}
