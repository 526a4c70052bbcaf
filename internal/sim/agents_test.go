package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"risa/internal/baseline" // registers NULB/NALB with the sched registry
	"risa/internal/faults"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

var _ = baseline.NewNULB // keep the registration import explicit

// agentTrace is a churn-like fixture with varied request shapes: enough
// arrivals for several windows and enough size diversity that agents
// genuinely contend for the same racks.
func agentTrace(n int) *workload.Trace {
	rng := rand.New(rand.NewSource(17))
	tr := &workload.Trace{Name: "agent-fixture"}
	for i := 0; i < n; i++ {
		tr.VMs = append(tr.VMs, workload.VM{
			ID: i, Arrival: int64(i * 3), Lifetime: 400, Req: units.Vec(
				units.Amount(rng.Int63n(32)+1),
				units.Amount(rng.Int63n(64)+1),
				128),
		})
	}
	return tr
}

// stripWall zeroes every wall-clock-derived SteadyState field so two runs
// can be compared on their deterministic content alone.
func stripWall(ss *SteadyState) *SteadyState {
	c := *ss
	c.LatencyP50, c.LatencyP95, c.LatencyP99, c.LatencySamples = 0, 0, 0, 0
	c.ReplaceP50, c.ReplaceP95, c.ReplaceP99, c.ReplaceSamples = 0, 0, 0, 0
	c.SchedulingTime, c.WallTime = 0, 0
	for t := range c.Tiers {
		c.Tiers[t].LatencyP50, c.Tiers[t].LatencyP95, c.Tiers[t].LatencyP99, c.Tiers[t].LatencySamples = 0, 0, 0, 0
	}
	return &c
}

// registryRunner builds a Runner whose scheduler comes from the sched
// registry — the same construction path the agent pool uses.
func registryRunner(t *testing.T, algorithm string, cfg Config) (*sched.State, *Runner) {
	t.Helper()
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(algorithm, st)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(st, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, r
}

// TestAgentsOneEquivalence: Agents:1 must be bit-identical to the plain
// serial path for every registered scheduler, under plain churn and
// under a fault plan with eviction and the retry queue — the agent
// machinery may only engage at N >= 2.
func TestAgentsOneEquivalence(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{
		{T: 600, Tier: faults.RackTier, Rack: 2},
		{T: 900, Repair: true, Tier: faults.RackTier, Rack: 2},
	}}
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{name: "churn"},
		{name: "faults", cfg: Config{Faults: Faults{Plan: plan, Evict: true, Retry: true}}},
	}
	for _, algorithm := range sched.Registered() {
		for _, sc := range scenarios {
			t.Run(algorithm+"/"+sc.name, func(t *testing.T) {
				run := func(agents int) *SteadyState {
					_, r := registryRunner(t, algorithm, sc.cfg)
					ss, err := r.RunStream(workload.NewTraceStream(agentTrace(500)), StreamConfig{
						Workload:    StreamWorkload{MaxArrivals: 500},
						Windows:     StreamWindows{Warmup: 300, Window: 200},
						Concurrency: StreamConcurrency{Agents: agents},
					})
					if err != nil {
						t.Fatal(err)
					}
					return stripWall(ss)
				}
				serial, one := run(0), run(1)
				if !reflect.DeepEqual(serial, one) {
					t.Errorf("Agents:1 diverged from serial:\nserial %+v\nagents %+v", serial, one)
				}
			})
		}
	}
}

// TestAgentsDeterminism: the same seed and the same agent count must
// reproduce the merged windows and counters exactly, run after run.
func TestAgentsDeterminism(t *testing.T) {
	for _, algorithm := range sched.Registered() {
		t.Run(algorithm, func(t *testing.T) {
			run := func() *SteadyState {
				_, r := registryRunner(t, algorithm, Config{})
				ss, err := r.RunStream(workload.NewTraceStream(agentTrace(600)), StreamConfig{
					Workload:    StreamWorkload{MaxArrivals: 600},
					Windows:     StreamWindows{Warmup: 300, Window: 200},
					Concurrency: StreamConcurrency{Agents: 4},
				})
				if err != nil {
					t.Fatal(err)
				}
				return stripWall(ss)
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two identical %d-agent runs diverged:\nfirst  %+v\nsecond %+v", 4, a, b)
			}
			if a.AgentCommits == 0 {
				t.Error("agent pool committed nothing — the optimistic path never engaged")
			}
			if a.TotalAccepted+a.TotalDropped != a.TotalArrivals {
				t.Errorf("conservation: accepted %d + dropped %d != arrivals %d",
					a.TotalAccepted, a.TotalDropped, a.TotalArrivals)
			}
		})
	}
}

// TestAgentsMatchSerialOutcome: agent mode takes a different path to the
// same placements only when no commit conflicts occur; in general the
// outcome may differ decision-by-decision, but the aggregate accounting
// must stay conserved and the final state must satisfy every invariant.
func TestAgentsMatchSerialOutcome(t *testing.T) {
	st, r := registryRunner(t, "RISA", Config{})
	ss, err := r.RunStream(workload.NewTraceStream(agentTrace(600)), StreamConfig{
		Workload:    StreamWorkload{MaxArrivals: 600},
		Windows:     StreamWindows{Warmup: 300, Window: 200},
		Concurrency: StreamConcurrency{Agents: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ss.TotalArrivals != 600 {
		t.Errorf("arrivals %d, want 600", ss.TotalArrivals)
	}
	if ss.TotalAccepted+ss.TotalDropped != ss.TotalArrivals {
		t.Errorf("conservation: accepted %d + dropped %d != arrivals %d",
			ss.TotalAccepted, ss.TotalDropped, ss.TotalArrivals)
	}
	if ss.AgentCommits+ss.AgentConflicts == 0 {
		t.Error("no proposals resolved — agent mode did not run")
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := st.Fabric.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestAgentsRetryQueue: under overload with the retry queue on, agent
// mode must keep the queue's conservation properties — arrivals either
// place (possibly from the queue) or count as dropped, never both, and
// the final state stays consistent.
func TestAgentsRetryQueue(t *testing.T) {
	cfg := topology.DefaultConfig()
	cfg.Racks = 4
	st, err := sched.NewState(cfg, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New("RISA", st)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(st, s, Config{Faults: Faults{Retry: true}})
	if err != nil {
		t.Fatal(err)
	}
	// Big VMs against a small cluster: the queue must engage.
	tr := &workload.Trace{Name: "agent-overload"}
	for i := 0; i < 200; i++ {
		tr.VMs = append(tr.VMs, workload.VM{
			ID: i, Arrival: int64(i * 2), Lifetime: 300, Req: units.Vec(128, 128, 1024),
		})
	}
	ss, err := r.RunStream(workload.NewTraceStream(tr), StreamConfig{
		Workload:    StreamWorkload{MaxArrivals: 200, Drain: true},
		Windows:     StreamWindows{Window: 100},
		Concurrency: StreamConcurrency{Agents: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ss.Enqueued == 0 || ss.RetrySucceeded == 0 {
		t.Fatalf("retry path idle under overload: enqueued %d, retried %d", ss.Enqueued, ss.RetrySucceeded)
	}
	if ss.TotalAccepted+ss.TotalDropped != 200 {
		t.Errorf("conservation: accepted %d + dropped %d != 200", ss.TotalAccepted, ss.TotalDropped)
	}
	if free, cap := st.Cluster.TotalFree(units.CPU), st.Cluster.TotalCapacity(units.CPU); free != cap {
		t.Errorf("drain left %d of %d CPU allocated", cap-free, cap)
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestAdmitKeepsArrivalOrder pins the retry-queue admission fix: a
// conflict loser re-queues with its ORIGINAL arrival sequence, so an
// out-of-order admit must insert mid-queue, not append — and ties keep
// append order so the serial path stays a pure append.
func TestAdmitKeepsArrivalOrder(t *testing.T) {
	sr := &eventCore{}
	vm := func(id int) workload.VM { return workload.VM{ID: id} }
	for _, q := range []QueuedVMState{
		{VM: vm(0), Seq: 1},
		{VM: vm(1), Seq: 4},
		{VM: vm(2), Seq: 2}, // late conflict loser: belongs between 1 and 4
		{VM: vm(3), Seq: 4}, // tie: stays after the existing seq-4 entry
		{VM: vm(4), Seq: 7},
	} {
		sr.insert(q)
	}
	want := []int{0, 2, 1, 3, 4}
	for i, q := range sr.waiting {
		if q.VM.ID != want[i] {
			ids := make([]int, len(sr.waiting))
			for j, w := range sr.waiting {
				ids[j] = w.VM.ID
			}
			t.Fatalf("queue order %v, want %v", ids, want)
		}
	}
	// A consumed head (wHead > 0) must not be disturbed by a later
	// low-seq admit: insertion stops at the head boundary.
	sr.wHead = 2
	sr.insert(QueuedVMState{VM: vm(5), Seq: 0})
	if sr.waiting[2].VM.ID != 5 {
		t.Errorf("low-seq admit landed at %d, want the wHead boundary", sr.waiting[2].VM.ID)
	}
	if sr.waiting[0].VM.ID != 0 || sr.waiting[1].VM.ID != 2 {
		t.Error("admit disturbed the consumed prefix")
	}
}

// TestAdmitKeepsArrivalOrderPerTier pins the tier-ordered retry queue:
// priority tier orders before admission sequence (tier 0 drains first
// regardless of when it queued), while equal-tier entries keep the
// original arrival-sequence discipline — so an all-tier-0 workload
// orders exactly as the untiered queue did.
func TestAdmitKeepsArrivalOrderPerTier(t *testing.T) {
	sr := &eventCore{}
	vm := func(id, tier int) workload.VM { return workload.VM{ID: id, Tier: tier} }
	for _, q := range []QueuedVMState{
		{VM: vm(0, 2), Seq: 1},
		{VM: vm(1, 0), Seq: 5}, // higher tier, later seq: drains first anyway
		{VM: vm(2, 1), Seq: 3},
		{VM: vm(3, 0), Seq: 2}, // tier 0, earlier seq: ahead of the other tier-0
		{VM: vm(4, 2), Seq: 0}, // tier 2, earliest seq: ahead of the first tier-2
		{VM: vm(5, 1), Seq: 9},
	} {
		sr.insert(q)
	}
	want := []int{3, 1, 2, 5, 4, 0}
	for i, q := range sr.waiting {
		if q.VM.ID != want[i] {
			ids := make([]int, len(sr.waiting))
			for j, w := range sr.waiting {
				ids[j] = w.VM.ID
			}
			t.Fatalf("queue order %v, want %v", ids, want)
		}
	}
	// The consumed prefix stays untouched even for a tier-0 admit that
	// would otherwise sort to the very front.
	sr.wHead = 2
	sr.insert(QueuedVMState{VM: vm(6, 0), Seq: 0})
	if sr.waiting[2].VM.ID != 6 {
		t.Errorf("tier-0 admit landed at %d, want the wHead boundary", sr.waiting[2].VM.ID)
	}
	if sr.waiting[0].VM.ID != 3 || sr.waiting[1].VM.ID != 1 {
		t.Error("admit disturbed the consumed prefix")
	}
}

// TestTierTwoDrainsAfterPressure is the starvation guard on the
// tier-ordered queue: tier-2 entries queued behind a wall of tier-0
// residents must all place once the pressure departs — lowest priority
// means drained last, never never.
func TestTierTwoDrainsAfterPressure(t *testing.T) {
	tr := &workload.Trace{Name: "tiered-pressure"}
	id := 0
	// 96 × 64 CPU units fill the 6-rack fixture's 6144 exactly.
	for i := 0; i < 96; i++ {
		tr.VMs = append(tr.VMs, workload.VM{ID: id, Arrival: int64(i), Lifetime: 1000, Tier: 0, Req: units.Vec(64, 64, 32)})
		id++
	}
	// Tier-2 arrivals against the full cluster: nothing to preempt below
	// them, so they queue and wait.
	for i := 0; i < 20; i++ {
		tr.VMs = append(tr.VMs, workload.VM{ID: id, Arrival: int64(100 + i), Lifetime: 1000, Tier: 2, Req: units.Vec(64, 64, 32)})
		id++
	}
	// A late sentinel arrival keeps the event loop running past the
	// tier-0 wall's departures (a finite trace otherwise ends the run at
	// its last arrival, stranding the queue).
	tr.VMs = append(tr.VMs, workload.VM{ID: id, Arrival: 2500, Lifetime: 100, Tier: 2, Req: units.Vec(1, 1, 32)})
	_, r := eqRunner(t, "RISA", Config{Faults: Faults{Retry: true, Preempt: true}})
	cfg := StreamConfig{Workload: StreamWorkload{Duration: 3000}, Windows: StreamWindows{Window: 500}}
	ss, err := r.RunStream(workload.NewTraceStream(tr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Enqueued < 20 {
		t.Fatalf("fixture queued only %d arrivals, want at least the 20 tier-2", ss.Enqueued)
	}
	if ss.Preempted != 0 {
		t.Errorf("tier-2 arrivals preempted %d victims; nothing sits below tier 2", ss.Preempted)
	}
	if got := ss.Tiers[2].TotalAccepted; got != 21 {
		t.Errorf("tier-2 accepted %d of 21 after the tier-0 wall departed", got)
	}
	if got := ss.Tiers[0].TotalAccepted; got != 96 {
		t.Errorf("tier-0 accepted %d of 96", got)
	}
}
