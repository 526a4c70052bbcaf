package experiments

import (
	"reflect"
	"sync"
	"testing"

	"risa/internal/sim"
)

// stripWallClock zeroes a Result's wall-clock field so runs can be
// compared bit for bit.
func stripWallClock(results map[string]*sim.Result) {
	for _, r := range results {
		r.SchedulingTime = 0
	}
}

// resilienceResult runs the full experiment and strips wall-clock noise;
// it returns rather than fails so concurrent callers can use it too.
func resilienceResult(setup Setup) (*Resilience, error) {
	r, err := AzureSetupFrom(setup).RunResilience()
	if err != nil {
		return nil, err
	}
	stripWallClock(r.Healthy)
	stripWallClock(r.Faulty)
	return r, nil
}

func runResilience(t *testing.T, setup Setup) *Resilience {
	t.Helper()
	r, err := resilienceResult(setup)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResilienceParallelismInvariance: the fault experiment's results
// are bit-identical between a strictly serial run and a pool-wide run —
// the regression guard for shared state sneaking into the fault paths
// (every cell builds its own datacenter, so pool width must not matter).
func TestResilienceParallelismInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two full resilience experiments")
	}
	defer SetParallelism(0)
	SetParallelism(1)
	serial := runResilience(t, DefaultSetup())
	SetParallelism(4)
	pooled := runResilience(t, DefaultSetup())
	if !reflect.DeepEqual(serial, pooled) {
		t.Error("resilience results differ between -parallel 1 and a 4-worker pool")
	}
}

// TestResilienceInterleavedAB extends the PR 4 InterleavedHygiene
// pattern to the fault paths: two whole resilience experiments with
// different seeds run concurrently (their simulations interleaving on
// the worker pool and the Go scheduler) must reproduce their isolated
// references exactly. A scratch buffer, pooled record or index shared
// across instances would make a placement depend on the other
// instance's timing and diverge.
func TestResilienceInterleavedAB(t *testing.T) {
	if testing.Short() {
		t.Skip("four full resilience experiments")
	}
	setupA := DefaultSetup()
	setupB := DefaultSetup()
	setupB.Seed = 2
	// Isolated references, one after the other.
	refA := runResilience(t, setupA)
	refB := runResilience(t, setupB)
	// The same two experiments, concurrently.
	var wg sync.WaitGroup
	var gotA, gotB *Resilience
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); gotA, errA = resilienceResult(setupA) }()
	go func() { defer wg.Done(); gotB, errB = resilienceResult(setupB) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("interleaved runs failed: %v / %v", errA, errB)
	}
	if !reflect.DeepEqual(refA, gotA) {
		t.Error("instance A diverged when interleaved with instance B")
	}
	if !reflect.DeepEqual(refB, gotB) {
		t.Error("instance B diverged when interleaved with instance A")
	}
}

// TestResiliencePlanShape pins the experiment's plan abstraction: the
// outage is the canonical whole-rack plan at the quarter and half marks.
func TestResiliencePlanShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full resilience experiment")
	}
	r := runResilience(t, DefaultSetup())
	if r.Plan == nil || len(r.Plan.Events) != 2 {
		t.Fatalf("plan = %+v, want the two-event rack outage", r.Plan)
	}
	fail, heal := r.Plan.Events[0], r.Plan.Events[1]
	if fail.Repair || fail.Rack != r.FailedRack || fail.T != r.FailAt {
		t.Errorf("fail event %+v does not match experiment %d@%d", fail, r.FailedRack, r.FailAt)
	}
	if !heal.Repair || heal.Rack != r.FailedRack || heal.T != r.HealAt {
		t.Errorf("heal event %+v does not match experiment %d@%d", heal, r.FailedRack, r.HealAt)
	}
	// The outage must bite: at least one algorithm drops more (or places
	// more inter-rack) under the fault than healthy.
	changed := false
	for _, alg := range Algorithms {
		if r.Faulty[alg].Dropped != r.Healthy[alg].Dropped ||
			r.Faulty[alg].InterRack != r.Healthy[alg].InterRack {
			changed = true
		}
	}
	if !changed {
		t.Error("fixture too weak: the outage changed nothing for any algorithm")
	}
}

// TestResilienceFaultyHalfHonoursOptics: both halves of the experiment are
// accounted under Setup.Optics. The faulty half used to build its runner
// without a power model, so it reported the default-α peak power whatever
// the setup said while the healthy half moved.
func TestResilienceFaultyHalfHonoursOptics(t *testing.T) {
	tuned := AzureSetup()
	tuned.Optics.Alpha = 0.5
	def, err := AzureSetup().RunResilience()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tuned.RunResilience()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if got.Healthy[alg].PeakPowerW == def.Healthy[alg].PeakPowerW {
			t.Fatalf("fixture too weak: α=0.5 leaves %s's healthy peak power at %g W", alg, def.Healthy[alg].PeakPowerW)
		}
		if got.Faulty[alg].PeakPowerW == def.Faulty[alg].PeakPowerW {
			t.Errorf("%s under the outage: peak power %g W at α=0.5 and at the default α", alg, got.Faulty[alg].PeakPowerW)
		}
	}
}
