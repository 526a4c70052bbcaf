package sim

import (
	"strings"
	"testing"

	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/units"
	"risa/internal/workload"
)

// edgeTrace arrives every 10 tu with 100 tu lifetimes, so event times
// are easy to reason about against window boundaries.
func edgeTrace(n int) *workload.Trace {
	tr := &workload.Trace{Name: "edge"}
	for i := 0; i < n; i++ {
		tr.VMs = append(tr.VMs, workload.VM{
			ID: i, Arrival: int64(i * 10), Lifetime: 100, Req: units.Vec(2, 4, 64),
		})
	}
	return tr
}

// TestRunStreamDurationOnWindowBoundary: a run whose Duration lands
// exactly on a window boundary must not report the window that starts
// there — windows are complete only when an event at or past their end
// closes them.
func TestRunStreamDurationOnWindowBoundary(t *testing.T) {
	tr := edgeTrace(200) // arrivals 0..1990
	_, r := eqRunner(t, "RISA", Config{})
	ss, err := r.RunStream(workload.NewTraceStream(tr), StreamConfig{Workload: StreamWorkload{Duration: 1000}, Windows: StreamWindows{Window: 250}})
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals at 0..1000 inclusive: 101 of them (Duration is an
	// inclusive bound on arrival times).
	if ss.TotalArrivals != 101 {
		t.Errorf("total arrivals = %d, want 101", ss.TotalArrivals)
	}
	if ss.End != 1000 {
		t.Errorf("end = %d, want 1000", ss.End)
	}
	// Windows [0,250) [250,500) [500,750) [750,1000) are complete; the
	// event at t=1000 closes the fourth exactly at its boundary.
	if len(ss.Windows) != 4 {
		t.Fatalf("windows = %d, want 4", len(ss.Windows))
	}
	last := ss.Windows[3]
	if last.Start != 750 || last.End != 1000 {
		t.Errorf("last window [%d,%d), want [750,1000)", last.Start, last.End)
	}
	// The boundary arrival at t=1000 belongs to the (unreported) fifth
	// window, not the fourth: 25 arrivals at 750..990.
	if last.Arrivals != 25 {
		t.Errorf("last window arrivals = %d, want 25", last.Arrivals)
	}
}

// TestRunStreamMaxArrivalsZero: MaxArrivals=0 means unbounded — the run
// is clipped by Duration alone; with both zero the config is invalid.
func TestRunStreamMaxArrivalsZero(t *testing.T) {
	tr := edgeTrace(50) // arrivals 0..490
	_, r := eqRunner(t, "RISA", Config{})
	ss, err := r.RunStream(workload.NewTraceStream(tr), StreamConfig{Workload: StreamWorkload{MaxArrivals: 0, Duration: 10000}, Windows: StreamWindows{Window: 100}})
	if err != nil {
		t.Fatal(err)
	}
	// Duration exceeds the trace: every arrival is consumed, and the run
	// stops at the last one (no drain).
	if ss.TotalArrivals != 50 {
		t.Errorf("total arrivals = %d, want all 50", ss.TotalArrivals)
	}
	if ss.End != 490 {
		t.Errorf("end = %d, want 490 (last arrival, not Duration)", ss.End)
	}
	if ss.Resident == 0 {
		t.Error("resident = 0: a stream run must stop at its last arrival, loaded")
	}

	_, r2 := eqRunner(t, "RISA", Config{})
	if _, err := r2.RunStream(workload.NewTraceStream(tr), StreamConfig{Windows: StreamWindows{Window: 100}}); err == nil {
		t.Fatal("MaxArrivals=0 with Duration=0 validated")
	}
}

// TestRunStreamSnapshotAtValidation: a negative Snapshot.At is rejected
// up front, and a positive one — even past the run's end — is refused:
// RunStream does not capture, WarmStream is the one capture path.
func TestRunStreamSnapshotAtValidation(t *testing.T) {
	tr := edgeTrace(50)
	_, r := eqRunner(t, "RISA", Config{})
	for _, at := range []int64{-1, 200, 1 << 40} {
		cfg := StreamConfig{Workload: StreamWorkload{MaxArrivals: 50}, Windows: StreamWindows{Window: 100}, Snapshot: StreamSnapshot{At: at}}
		if _, err := r.RunStream(workload.NewTraceStream(tr), cfg); err == nil {
			t.Errorf("RunStream with Snapshot.At %d succeeded", at)
		}
	}
}

// TestPreemptConfigValidation: preemption is a retry-queue feature —
// Faults.Preempt without Faults.Retry is rejected by NewRunner, and the
// error names the rule.
func TestPreemptConfigValidation(t *testing.T) {
	st, err := sched.NewState(eqTopology(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewRunner(st, eqScheduler(t, "RISA", st), Config{Faults: Faults{Preempt: true}})
	if err == nil || !strings.Contains(err.Error(), "Faults.Preempt requires Faults.Retry") {
		t.Fatalf("preempt without retry: got %v", err)
	}
}

// TestRunRefusesPreempt: preemption releases its victims without the
// observer's releasing hook, so Run's power accountant would count a
// re-placed victim's circuits twice; a preempting runner's Run is refused
// before it touches the state — the same runner still streams.
func TestRunRefusesPreempt(t *testing.T) {
	tr := edgeTrace(10)
	st, r := eqRunner(t, "RISA", Config{Faults: Faults{Retry: true, Preempt: true}})
	if _, err := r.Run(tr); err == nil || !strings.Contains(err.Error(), "Run does not preempt") {
		t.Fatalf("preempt under Run: got %v", err)
	}
	if free, capacity := st.Cluster.TotalFree(units.CPU), st.Cluster.TotalCapacity(units.CPU); free != capacity {
		t.Fatalf("refused Run left %d of %d CPU allocated", capacity-free, capacity)
	}
	if _, err := r.RunStream(workload.NewTraceStream(tr), StreamConfig{Workload: StreamWorkload{MaxArrivals: 10}, Windows: StreamWindows{Window: 100}}); err != nil {
		t.Fatal(err)
	}
}
