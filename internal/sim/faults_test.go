package sim

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"risa/internal/core"
	"risa/internal/faults"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// faultRunner builds a RISA runner on the default datacenter with the
// given fault configuration.
func faultRunner(t testing.TB, cfg Config) (*sched.State, *Runner) {
	t.Helper()
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(st, core.New(st), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, r
}

func TestNewRunnerValidatesFaultConfig(t *testing.T) {
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// An out-of-range plan is rejected up front.
	bad := &faults.Plan{Events: []faults.Event{{T: 0, Tier: faults.RackTier, Rack: 99}}}
	if _, err := NewRunner(st, core.New(st), Config{Faults: Faults{Plan: bad}}); err == nil {
		t.Error("out-of-range plan accepted")
	}
	// Evict without a plan is meaningless.
	if _, err := NewRunner(st, core.New(st), Config{Faults: Faults{Evict: true}}); err == nil {
		t.Error("Evict without a fault plan accepted")
	}
}

// TestRunFaultPlanMatchesDriverApply: a rack-outage plan merged into Run
// must reproduce, placement for placement, the same outage applied
// step-wise through Driver.Apply at the same instants — the fault plan
// is nothing but the event core applying faults at their timestamps. (It
// replaces the comparison against the closure-based injections the
// resilience experiment used before fault plans existed.)
func TestRunFaultPlanMatchesDriverApply(t *testing.T) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.N = 500
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := tr.VMs[tr.Len()-1].Arrival
	plan := faults.RackFailure(2, last/4, last/2)
	tcfg := topology.DefaultConfig()

	withPlan := logRun(t, tcfg, tr, plan)
	stepped := logDriver(t, tcfg, tr, plan)
	if !reflect.DeepEqual(withPlan, stepped) {
		t.Errorf("plan placements differ from step-wise Driver.Apply placements:\n%v\nvs\n%v", withPlan, stepped)
	}
	// The fixture must actually bite: the same trace without the outage
	// places differently (placements shifted off rack 2).
	if reflect.DeepEqual(withPlan, logRun(t, tcfg, tr, nil)) {
		t.Error("fixture too weak: the outage changed nothing")
	}
}

// streamFor yields a stationary synthetic arrival stream dense enough
// that the default cluster holds a meaningful resident population.
func streamFor(t testing.TB) workload.Stream {
	t.Helper()
	cfg := workload.DefaultSyntheticConfig()
	cfg.LifetimeStep = 0
	cfg.MeanInterarrival = 2
	s, err := cfg.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runEmptied plays streamFor's first 2000 arrivals under cfg with Run,
// whose finite setting continues to an empty heap, and checks the
// datacenter ends pristine and consistent: every placement, re-placement
// and circuit the fault surface made was given back.
func runEmptied(t *testing.T, cfg Config) {
	t.Helper()
	st, r := faultRunner(t, cfg)
	if _, err := r.Run(workload.Take(streamFor(t), 2000)); err != nil {
		t.Fatal(err)
	}
	for _, k := range units.Resources() {
		if st.Cluster.TotalFree(k) != st.Cluster.TotalCapacity(k) {
			t.Errorf("%v not pristine once every VM departed", k)
		}
	}
	f := st.Fabric
	if f.IntraRackFree() != f.IntraRackCapacity() || f.InterRackFree() != f.InterRackCapacity() {
		t.Error("fabric still carries reservations once every VM departed")
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestRunStreamFaultsNoEvict: resident VMs ride out an outage in place —
// nothing is displaced, the capacity dips and returns, and the same
// arrivals played to the end leave the datacenter pristine.
func TestRunStreamFaultsNoEvict(t *testing.T) {
	plan := faults.RackFailure(0, 400, 900)
	cfg := Config{Faults: Faults{Plan: plan}}
	st, r := faultRunner(t, cfg)
	res, err := r.RunStream(streamFor(t), StreamConfig{Workload: StreamWorkload{MaxArrivals: 2000}, Windows: StreamWindows{Warmup: 200, Window: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Displaced != 0 || res.Recovered != 0 || res.DisplacedLost != 0 {
		t.Errorf("no-evict run displaced %d/%d/%d VMs", res.Displaced, res.Recovered, res.DisplacedLost)
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	runEmptied(t, cfg)
}

// TestRunStreamEviction: with Evict, VMs resident on the failed rack are
// displaced; on the default cluster the 17 healthy racks absorb them
// all, their departure events stay valid, and the same arrivals played
// to the end leave the datacenter pristine after the repair.
func TestRunStreamEviction(t *testing.T) {
	plan := faults.RackFailure(0, 400, 900)
	cfg := Config{Faults: Faults{Plan: plan, Evict: true}}
	st, r := faultRunner(t, cfg)
	res, err := r.RunStream(streamFor(t), StreamConfig{Workload: StreamWorkload{MaxArrivals: 2000}, Windows: StreamWindows{Warmup: 200, Window: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Displaced == 0 {
		t.Fatal("fixture too weak: nothing was resident on the failed rack")
	}
	if res.Recovered != res.Displaced || res.DisplacedLost != 0 || res.Enqueued != 0 {
		t.Errorf("displaced %d, recovered %d, lost %d, queued %d — a near-empty cluster must absorb all",
			res.Displaced, res.Recovered, res.DisplacedLost, res.Enqueued)
	}
	if res.ReplaceSamples == 0 {
		t.Error("no re-placement latency samples")
	}
	var winDisplaced, winRecovered int
	for _, w := range res.Windows {
		winDisplaced += w.Displaced
		winRecovered += w.Recovered
	}
	if winDisplaced != res.Displaced || winRecovered != res.Recovered {
		t.Errorf("windows count %d/%d displaced/recovered, run counts %d/%d",
			winDisplaced, winRecovered, res.Displaced, res.Recovered)
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	runEmptied(t, cfg)
}

// TestRunStreamEvictionLoss: when the whole cluster fails there is
// nowhere to go — every resident VM is lost, its departure event turns
// into a ghost, and the repaired cluster keeps serving fresh arrivals;
// played to the end, it is left pristine.
func TestRunStreamEvictionLoss(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{}}
	for rack := 0; rack < topology.DefaultConfig().Racks; rack++ {
		plan.Events = append(plan.Events, faults.Event{T: 500, Tier: faults.RackTier, Rack: rack})
	}
	for rack := 0; rack < topology.DefaultConfig().Racks; rack++ {
		plan.Events = append(plan.Events,
			faults.Event{T: 600, Tier: faults.RackTier, Rack: rack, Repair: true})
	}
	cfg := Config{Faults: Faults{Plan: plan, Evict: true}}
	st, r := faultRunner(t, cfg)
	res, err := r.RunStream(streamFor(t), StreamConfig{Workload: StreamWorkload{MaxArrivals: 2000}, Windows: StreamWindows{Warmup: 200, Window: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Displaced == 0 || res.DisplacedLost != res.Displaced || res.Recovered != 0 {
		t.Errorf("displaced %d, lost %d, recovered %d — total failure must lose all",
			res.Displaced, res.DisplacedLost, res.Recovered)
	}
	// Life goes on after the repair: the post-outage accept count grows.
	if res.TotalAccepted <= res.Displaced {
		t.Error("no arrivals accepted after the repair")
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	runEmptied(t, cfg)
}

// TestRunStreamEvictionRetryQueue: displaced VMs that cannot be
// re-placed park on the retry queue instead of dying, and the repair
// drains them back in.
func TestRunStreamEvictionRetryQueue(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{}}
	racks := topology.DefaultConfig().Racks
	for rack := 0; rack < racks; rack++ {
		plan.Events = append(plan.Events, faults.Event{T: 500, Tier: faults.RackTier, Rack: rack})
	}
	for rack := 0; rack < racks; rack++ {
		plan.Events = append(plan.Events,
			faults.Event{T: 600, Tier: faults.RackTier, Rack: rack, Repair: true})
	}
	cfg := Config{Faults: Faults{Plan: plan, Evict: true, Retry: true}}
	st, r := faultRunner(t, cfg)
	res, err := r.RunStream(streamFor(t), StreamConfig{Workload: StreamWorkload{MaxArrivals: 2000}, Windows: StreamWindows{Warmup: 200, Window: 200}})
	if err != nil {
		t.Fatal(err)
	}
	// With every rack down no displaced VM can be re-placed at once, so
	// each one parks.
	if res.Displaced == 0 || res.Enqueued < res.Displaced || res.DisplacedLost != 0 {
		t.Errorf("displaced %d, queued %d, lost %d — retry must park displaced VMs",
			res.Displaced, res.Enqueued, res.DisplacedLost)
	}
	if res.RetrySucceeded == 0 {
		t.Error("repair never drained the queue")
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	runEmptied(t, cfg)
}

// TestRunStreamFaultDeterminism: two identically configured fault runs
// report identical metrics (wall-clock fields excluded) under a generated
// box-outage plan with a rack outage laid over the first failed box, so a
// box sits inside two overlapping outages.
func TestRunStreamFaultDeterminism(t *testing.T) {
	tcfg := topology.DefaultConfig()
	plan, err := faults.Generate(faults.GenConfig{
		Seed: 7, Horizon: 4000,
		Racks: tcfg.Racks, BoxesPerRack: tcfg.BoxesPerRack(),
		MTBF: 20000, MTTR: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	// In canonical order a rack event precedes the box events of its
	// instant: the failure goes first of all, the repair ahead of the
	// first event at or after its time.
	first := plan.Events[0]
	heal := faults.Event{T: first.T + 500, Repair: true, Tier: faults.RackTier, Rack: first.Rack}
	i := slices.IndexFunc(plan.Events, func(e faults.Event) bool { return e.T >= heal.T })
	if i < 0 {
		i = len(plan.Events)
	}
	plan.Events = slices.Insert(plan.Events, i, heal)
	plan.Events = slices.Insert(plan.Events, 0, faults.Event{T: first.T, Tier: faults.RackTier, Rack: first.Rack})
	run := func() *SteadyState {
		_, r := faultRunner(t, Config{Faults: Faults{Plan: plan, Evict: true}})
		res, err := r.RunStream(streamFor(t), StreamConfig{Workload: StreamWorkload{MaxArrivals: 2000}, Windows: StreamWindows{Warmup: 200, Window: 200}})
		if err != nil {
			t.Fatal(err)
		}
		res.SchedulingTime, res.WallTime = 0, 0
		res.LatencyP50, res.LatencyP95, res.LatencyP99 = 0, 0, 0
		res.ReplaceP95 = 0
		for t := range res.Tiers {
			res.Tiers[t].LatencyP50, res.Tiers[t].LatencyP95, res.Tiers[t].LatencyP99 = 0, 0, 0
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fault runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Displaced == 0 {
		t.Error("fixture too weak: the plan displaced nothing")
	}
}

// TestOverlappingTierOutages: a box covered by two outage scopes at
// once (its own box-tier failure and its rack's failure) stays down
// until the LAST covering scope is repaired — the per-box refcounts
// behind applyFault. Before the refcounts, the box-tier repair at t=300
// un-failed the box mid-rack-outage.
func TestOverlappingTierOutages(t *testing.T) {
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(st, core.New(st))
	if _, _, err := d.Place(workload.VM{ID: 0, Arrival: 0, Lifetime: 1000, Req: units.Vec(1, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	box := st.Cluster.Rack(0).Boxes()[0]
	for _, step := range []struct {
		ev     faults.Event
		failed bool
		why    string
	}{
		{faults.Event{T: 100, Tier: faults.BoxTier, Rack: 0, Box: 0}, true, "box-tier failure"},
		{faults.Event{T: 200, Tier: faults.RackTier, Rack: 0}, true, "rack-tier failure on top"},
		{faults.Event{T: 300, Repair: true, Tier: faults.BoxTier, Rack: 0, Box: 0}, true,
			"box un-failed by the box-tier repair while its rack was still down"},
		{faults.Event{T: 800, Repair: true, Tier: faults.RackTier, Rack: 0}, false,
			"box still failed after the last covering repair"},
	} {
		if err := d.Apply(step.ev); err != nil {
			t.Fatal(err)
		}
		if box.Failed() != step.failed {
			t.Errorf("after %v: failed = %v (%s)", step.ev, box.Failed(), step.why)
		}
	}
	d.reach(1000, arrival)
	if d.Resident() != 0 {
		t.Errorf("%d VMs resident after the last departure", d.Resident())
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestEvictionSparesSameInstantDepartures: a VM whose departure is due
// at the failure instant itself is leaving anyway — it must not be
// displaced, killed or counted.
func TestEvictionSparesSameInstantDepartures(t *testing.T) {
	// The VM arrives at 0 and lives exactly until the whole-cluster
	// outage at t=100; eviction would have to kill it (nowhere to go).
	plan := &faults.Plan{}
	racks := topology.DefaultConfig().Racks
	for rack := 0; rack < racks; rack++ {
		plan.Events = append(plan.Events, faults.Event{T: 100, Tier: faults.RackTier, Rack: rack})
	}
	for rack := 0; rack < racks; rack++ {
		plan.Events = append(plan.Events,
			faults.Event{T: 150, Repair: true, Tier: faults.RackTier, Rack: rack})
	}
	st, r := faultRunner(t, Config{Faults: Faults{Plan: plan, Evict: true}})
	tr := &workload.Trace{Name: "same-instant", VMs: []workload.VM{
		{ID: 0, Arrival: 0, Lifetime: 100, Req: units.Vec(8, 16, 128)},
	}}
	res, err := r.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Displaced != 0 || res.DisplacedLost != 0 {
		t.Errorf("same-instant departure displaced %d / lost %d, want 0/0", res.Displaced, res.DisplacedLost)
	}
	if res.Scheduled != 1 || res.Dropped != 0 {
		t.Errorf("scheduled %d dropped %d, want 1/0", res.Scheduled, res.Dropped)
	}
	for _, k := range units.Resources() {
		if st.Cluster.TotalFree(k) != st.Cluster.TotalCapacity(k) {
			t.Errorf("%v not pristine after the run", k)
		}
	}
}

// TestDisplacedRequeueCountsOnce: with Evict+Retry, a VM that is
// displaced, parked on the retry queue and re-placed after the repair
// counts as ONE acceptance (at its arrival) plus one recovery — not
// two acceptances.
func TestDisplacedRequeueCountsOnce(t *testing.T) {
	racks := topology.DefaultConfig().Racks
	plan := &faults.Plan{}
	for rack := 0; rack < racks; rack++ {
		plan.Events = append(plan.Events, faults.Event{T: 50, Tier: faults.RackTier, Rack: rack})
	}
	for rack := 0; rack < racks; rack++ {
		plan.Events = append(plan.Events,
			faults.Event{T: 60, Repair: true, Tier: faults.RackTier, Rack: rack})
	}
	_, r := faultRunner(t, Config{Faults: Faults{Plan: plan, Evict: true, Retry: true}})
	// One resident VM displaced by the total outage at t=50, re-admitted
	// by the repair at t=60; a second arrival keeps the run going.
	tr := &workload.Trace{Name: "requeue", VMs: []workload.VM{
		{ID: 0, Arrival: 0, Lifetime: 100, Req: units.Vec(8, 16, 128)},
		{ID: 1, Arrival: 200, Lifetime: 10, Req: units.Vec(8, 16, 128)},
	}}
	res, err := r.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 2 {
		t.Errorf("scheduled %d, want 2 (a recovery is not a second acceptance)", res.Scheduled)
	}
	if res.Displaced != 1 || res.Recovered != 1 || res.DisplacedLost != 0 {
		t.Errorf("displaced/recovered/lost = %d/%d/%d, want 1/1/0",
			res.Displaced, res.Recovered, res.DisplacedLost)
	}
	if res.Dropped != 0 {
		t.Errorf("dropped %d, want 0", res.Dropped)
	}
}

// spyObserver records the event core's eviction callbacks (SNIPPETS.md
// spy idiom: inject, then assert the observable contract).
type spyObserver struct {
	released  []int // VM IDs detached before displacement
	moved     []*sched.Assignment
	recovered []bool
	lost      []QueuedVMState
}

func (s *spyObserver) advance(int64)                                 {}
func (s *spyObserver) decided(workload.VM, time.Duration, bool)      {}
func (s *spyObserver) placed(QueuedVMState, *sched.Assignment, bool) {}
func (s *spyObserver) enqueued(QueuedVMState)                        {}
func (s *spyObserver) dropped(q QueuedVMState)                       { s.lost = append(s.lost, q) }
func (s *spyObserver) releasing(vm workload.VM, _ *sched.Assignment, evicted bool) {
	if evicted {
		s.released = append(s.released, vm.ID)
	}
}
func (s *spyObserver) displaced(a *sched.Assignment, recovered bool, _ time.Duration) {
	s.moved = append(s.moved, a)
	s.recovered = append(s.recovered, recovered)
}

// TestEvictDisplacedSkipsHealthyAndGhosts drives the event core's
// eviction scan directly under a spy observer: only departures on failed
// hardware are touched, each is announced before it is displaced, a
// recovered VM's departure is rebound to its new record at its original
// time, and a VM with nowhere to go is dropped as a displaced loss and
// ghosted, its holdings back in the cluster once the hardware heals.
func TestEvictDisplacedSkipsHealthyAndGhosts(t *testing.T) {
	st, r := faultRunner(t, Config{})
	spy := &spyObserver{}
	c := newEventCore(st, r.sch, spy, Faults{Evict: true})
	vm := workload.VM{ID: 1, Lifetime: 10, Req: units.Vec(8, 16, 128)}
	a1, err := c.decide(vm, true)
	if err != nil {
		t.Fatal(err)
	}
	c.place(QueuedVMState{VM: vm}, a1, 0, false)
	c.h.Push(event{t: 11, kind: departure, seq: 1, a: nil}) // ghost
	c.h.Push(event{t: 12, kind: fault, seq: 2})
	c.evictDisplaced()
	if len(spy.moved) != 0 {
		t.Errorf("healthy departure displaced %d times", len(spy.moved))
	}
	// Fail the VM's CPU rack: now exactly one displacement, recovered.
	for _, b := range st.Cluster.Rack(a1.CPU.Box.Rack()).Boxes() {
		st.Cluster.SetBoxFailed(b, true)
	}
	c.evictDisplaced()
	if len(spy.moved) != 1 || !spy.recovered[0] {
		t.Fatalf("displaced %d (recovered %v), want one recovery on a near-empty cluster", len(spy.moved), spy.recovered)
	}
	if !reflect.DeepEqual(spy.released, []int{1}) {
		t.Errorf("released before displacement: %v, want [1]", spy.released)
	}
	var dep *event
	for i := range c.h.s {
		if c.h.s[i].kind == departure && c.h.s[i].a != nil {
			dep = &c.h.s[i]
		}
	}
	switch {
	case dep == nil:
		t.Fatal("the recovered VM's departure holds no record")
	case dep.a != spy.moved[0]:
		t.Error("the departure does not hold the record the recovery reported")
	case dep.a.VM.ID != vm.ID || dep.a.VM.Lifetime != vm.Lifetime:
		t.Errorf("the departure holds VM %d (lifetime %d), want VM %d (lifetime %d)",
			dep.a.VM.ID, dep.a.VM.Lifetime, vm.ID, vm.Lifetime)
	case dep.a.OnFailedHardware():
		t.Error("recovered VM still on the failed hardware")
	case dep.t != vm.Lifetime:
		t.Errorf("recovered VM departs at t=%d, want its original t=%d", dep.t, vm.Lifetime)
	}
	// Fail everything: the VM has nowhere to go and is lost for good.
	for _, b := range st.Cluster.Boxes() {
		st.Cluster.SetBoxFailed(b, true)
	}
	c.evictDisplaced()
	if len(spy.moved) != 2 || spy.recovered[1] {
		t.Fatalf("displaced %d (recovered %v), want a second, failed displacement", len(spy.moved), spy.recovered)
	}
	if len(spy.lost) != 1 || !spy.lost[0].Displaced || spy.lost[0].VM.ID != 1 {
		t.Errorf("lost = %+v, want VM 1 as a displaced loss", spy.lost)
	}
	if c.resident != 0 {
		t.Errorf("resident = %d after the loss", c.resident)
	}
	for c.h.Len() > 0 {
		if e := c.h.Pop(); e.a != nil {
			t.Errorf("event %+v still holds an assignment: the lost VM must be a ghost", e)
		}
	}
	// The loss released its holdings into failed boxes: repair hands
	// every unit back.
	for _, b := range st.Cluster.Boxes() {
		st.Cluster.SetBoxFailed(b, false)
	}
	for _, k := range units.Resources() {
		if st.Cluster.TotalFree(k) != st.Cluster.TotalCapacity(k) {
			t.Errorf("%v not pristine after repair", k)
		}
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := st.Fabric.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestGhostsSurviveHeapRoundTrip makes ghosts the way runs do — an
// eviction with nowhere to go under Evict+Retry unseats the VM — and
// requires capture → restore → capture to reproduce every EventState
// (and the rest of the core's position). A ghost's entry holds no assignment to read its VM from, so
// the VM it departed as (original arrival, not the retry queue's restarted
// one) must ride along off the entry and come back byte for byte.
func TestGhostsSurviveHeapRoundTrip(t *testing.T) {
	st, r := faultRunner(t, Config{})
	f := Faults{Evict: true, Retry: true}
	c := newEventCore(st, r.sch, &spyObserver{}, f)
	place := func(vm workload.VM) {
		t.Helper()
		a, err := c.decide(vm, true)
		if err != nil {
			t.Fatal(err)
		}
		c.place(QueuedVMState{VM: vm}, a, vm.Arrival, false)
	}
	ghosts := []workload.VM{
		{ID: 1, Arrival: 3, Lifetime: 40, Req: units.Vec(8, 16, 128), Tier: 2},
		{ID: 2, Arrival: 4, Lifetime: 30, Req: units.Vec(4, 8, 64)},
	}
	for _, vm := range ghosts {
		place(vm)
	}
	// Everything fails at t=5: both residents are unseated into ghosts.
	c.now = 5
	for _, b := range st.Cluster.Boxes() {
		st.Cluster.SetBoxFailed(b, true)
	}
	c.evictDisplaced()
	if c.resident != 0 || len(c.waiting) != 2 {
		t.Fatalf("resident %d, waiting %d after total failure, want 0 and 2", c.resident, len(c.waiting))
	}
	for _, b := range st.Cluster.Boxes() {
		st.Cluster.SetBoxFailed(b, false)
	}
	place(workload.VM{ID: 3, Arrival: 5, Lifetime: 10, Req: units.Vec(8, 16, 128)}) // a live departure beside them

	var snap Snapshot
	if err := c.capture(&snap); err != nil {
		t.Fatal(err)
	}
	var got []workload.VM
	for _, es := range snap.Events {
		if es.A < 0 {
			got = append(got, es.VM)
		}
	}
	slices.SortFunc(got, func(a, b workload.VM) int { return a.ID - b.ID })
	if !reflect.DeepEqual(got, ghosts) {
		t.Fatalf("captured ghost VMs %+v, want %+v", got, ghosts)
	}

	st2, r2 := faultRunner(t, Config{})
	c2 := newEventCore(st2, r2.sch, nil, f)
	if err := c2.restore(&snap); err != nil {
		t.Fatal(err)
	}
	var again Snapshot
	if err := c2.capture(&again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, snap) {
		t.Fatalf("round trip changed the core's position:\n got %+v\nwant %+v", again, snap)
	}

	// A live departure whose recorded VM is not its assignment's is refused:
	// the entry would silently depart as a different VM.
	for i := range snap.Events {
		if snap.Events[i].A >= 0 {
			snap.Events[i].VM.Lifetime++
		}
	}
	st3, r3 := faultRunner(t, Config{})
	if err := newEventCore(st3, r3.sch, nil, f).restore(&snap); err == nil {
		t.Error("restore accepted a live departure whose VM differs from its assignment's")
	}
}
