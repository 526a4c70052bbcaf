package sim

import (
	"reflect"
	"testing"

	"risa/internal/core"
	"risa/internal/faults"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/workload"
)

// decision is one logged Schedule outcome: the VM and where it landed
// (placementSig's CPU/RAM/STO global box indices; "" for a rejection).
type decision struct {
	VM    int
	Boxes string
}

// recordingScheduler decorates a scheduler with a per-decision log, so
// two drivers of the event core can be compared placement for placement
// rather than counter for counter.
type recordingScheduler struct {
	sched.Scheduler
	st  *sched.State
	log *[]decision
}

func (r recordingScheduler) Schedule(vm workload.VM) (*sched.Assignment, error) {
	a, err := r.Scheduler.Schedule(vm)
	d := decision{VM: vm.ID}
	if err == nil {
		d.Boxes = placementSig(r.st, a)
	}
	*r.log = append(*r.log, d)
	return a, err
}

// recorded builds a fresh state under tcfg with a recording RISA bound
// to it.
func recorded(t *testing.T, tcfg topology.Config) (*sched.State, sched.Scheduler, *[]decision) {
	t.Helper()
	st, err := sched.NewState(tcfg, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := &[]decision{}
	return st, recordingScheduler{Scheduler: core.New(st), st: st, log: log}, log
}

// logRun plays tr through Runner.Run under plan and returns the decision
// log.
func logRun(t *testing.T, tcfg topology.Config, tr *workload.Trace, plan *faults.Plan) []decision {
	t.Helper()
	st, sch, log := recorded(t, tcfg)
	r, err := NewRunner(st, sch, Config{Faults: Faults{Plan: plan}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(tr); err != nil {
		t.Fatal(err)
	}
	return *log
}

// logStream plays tr through Runner.RunStream under plan.
func logStream(t *testing.T, tcfg topology.Config, tr *workload.Trace, plan *faults.Plan) []decision {
	t.Helper()
	st, sch, log := recorded(t, tcfg)
	r, err := NewRunner(st, sch, Config{Faults: Faults{Plan: plan}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunStream(workload.NewTraceStream(tr), StreamConfig{
		Workload: StreamWorkload{MaxArrivals: tr.Len()},
		Windows:  StreamWindows{Window: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return *log
}

// logDriver steps a Driver through tr with Place, applying each plan
// event with Apply before the first arrival at or after its instant — the
// order the event core gives a plan (faults precede same-instant
// arrivals).
func logDriver(t *testing.T, tcfg topology.Config, tr *workload.Trace, plan *faults.Plan) []decision {
	t.Helper()
	st, sch, log := recorded(t, tcfg)
	d := NewDriver(st, sch)
	var pending []faults.Event
	if plan != nil {
		pending = plan.Events
	}
	for _, vm := range tr.VMs {
		for len(pending) > 0 && pending[0].T <= vm.Arrival {
			if err := d.Apply(pending[0]); err != nil {
				t.Fatal(err)
			}
			pending = pending[1:]
		}
		d.Place(vm)
	}
	return *log
}

// TestDriversAgree plays one trace — dense enough to drop, under a box
// outage overlapped by its rack's outage — through all three drivers of
// the event core under the semantics they share (drop on failure, no
// eviction): Run, RunStream, and a Driver stepped with Place/Apply.
// Every decision, box for box, must agree.
func TestDriversAgree(t *testing.T) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.N = 1500
	cfg.MeanInterarrival = 2
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := func(i int) int64 { return tr.VMs[i].Arrival }
	plan := &faults.Plan{Events: []faults.Event{
		{T: at(200), Tier: faults.BoxTier, Rack: 1, Box: 0},
		{T: at(400), Tier: faults.RackTier, Rack: 1}, // lands on an arrival's instant
		{T: at(700) + 1, Repair: true, Tier: faults.BoxTier, Rack: 1, Box: 0},
		{T: at(1100), Repair: true, Tier: faults.RackTier, Rack: 1},
	}}
	tcfg := eqTopology()

	want := logRun(t, tcfg, tr, plan)
	if len(want) != tr.Len() {
		t.Fatalf("Run logged %d decisions for %d arrivals", len(want), tr.Len())
	}
	drops := 0
	for _, d := range want {
		if d.Boxes == "" {
			drops++
		}
	}
	if drops == 0 || drops == len(want) {
		t.Fatalf("fixture too weak: %d of %d arrivals dropped", drops, len(want))
	}
	if reflect.DeepEqual(want, logRun(t, tcfg, tr, nil)) {
		t.Fatal("fixture too weak: the fault plan changed no decision")
	}
	for name, got := range map[string][]decision{
		"RunStream": logStream(t, tcfg, tr, plan),
		"Driver":    logDriver(t, tcfg, tr, plan),
	} {
		if !reflect.DeepEqual(want, got) {
			i := 0
			for i < len(want) && i < len(got) && want[i] == got[i] {
				i++
			}
			t.Errorf("%s diverges from Run at decision %d (logged %d, Run %d)", name, i, len(got), len(want))
		}
	}
}

// TestEventKindWireValues pins the integers EventState.Kind carries in
// gob snapshots (risasim -snapshot files, risasvc data directories):
// deleting the injection kind must not renumber the others, and the
// reserved 0 — like any kind that cannot sit in a heap — is refused on
// restore.
func TestEventKindWireValues(t *testing.T) {
	if fault != 1 || departure != 2 || arrival != 3 {
		t.Fatalf("event kinds renumbered: fault=%d departure=%d arrival=%d, want 1/2/3", fault, departure, arrival)
	}
	d := newTestDriver(t, "RISA")
	if _, _, err := d.Place(workload.VM{ID: 1, Lifetime: 10, Req: smallTrace().VMs[0].Req}); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Events) != 1 || snap.Events[0].Kind != 2 {
		t.Fatalf("driver snapshot events = %+v, want one departure stored as kind 2", snap.Events)
	}
	for _, kind := range []int{0, 1, 3, 4} {
		bad := *snap
		bad.Events = []EventState{snap.Events[0]}
		bad.Events[0].Kind = kind
		st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreDriver(st, core.New(st), &bad); err == nil {
			t.Errorf("driver snapshot with an event of kind %d restored", kind)
		}
	}
}

// TestRunnerReusableAcrossStreamRuns is the regression test for run
// state leaking onto the Runner: every run builds its own event core, so
// two retry runs on one runner enqueue exactly alike.
func TestRunnerReusableAcrossStreamRuns(t *testing.T) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.N = 1500
	cfg.MeanInterarrival = 2
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(r *Runner) *SteadyState {
		t.Helper()
		ss, err := r.RunStream(workload.NewTraceStream(tr), StreamConfig{
			Workload: StreamWorkload{MaxArrivals: tr.Len(), Drain: true},
			Windows:  StreamWindows{Window: 1000},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	_, r := eqRunner(t, "RISA", Config{Faults: Faults{Retry: true}})
	first := run(r)
	if first.Enqueued == 0 {
		t.Fatal("fixture too weak: nothing ever queued")
	}
	if second := run(r); second.Enqueued != first.Enqueued {
		t.Errorf("second retry run enqueued %d, first %d", second.Enqueued, first.Enqueued)
	}
	if _, plain := eqRunner(t, "RISA", Config{}); run(plain).TotalDropped == 0 {
		t.Error("fixture too weak: without the retry queue nothing drops")
	}
}
