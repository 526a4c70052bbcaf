package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"sync"
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

// eqTopology is a small cluster so the equivalence matrix stays fast:
// 6 racks × (2+2+2) boxes, 1536 units of each compute resource.
func eqTopology() topology.Config {
	cfg := topology.DefaultConfig()
	cfg.Racks = 6
	return cfg
}

func eqScheduler(t testing.TB, name string, st *sched.State) sched.Scheduler {
	t.Helper()
	s, err := sched.New(name, st)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var eqAlgorithms = []string{"NULB", "NALB", "RISA", "RISA-BF"}

// eqStream builds the controlled synthetic stream the equivalence matrix
// uses: the churn ladder's §5.1 mix with stationary lifetimes, loaded to
// ~85% of the binding resource so placements, drops and the controller
// all stay active. Each call returns a fresh, identically configured
// stream — the snapshot contract repositions it by replay.
func eqStream(t testing.TB) workload.Stream {
	t.Helper()
	cfg := eqStreamConfig()
	s, err := cfg.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func eqStreamConfig() workload.SyntheticConfig {
	cfg := workload.DefaultSyntheticConfig()
	cfg.LifetimeStep = 0
	// 1536 units / (6300 tu × 16.5 mean req) ≈ 0.0148 VMs/tu at full
	// occupancy; target 85% of it.
	cfg.MeanInterarrival = 1 / (0.85 * 1536 / (6300 * 16.5))
	cfg.Controller = &workload.UtilizationController{Target: 0.85}
	return cfg
}

// tieredStream is eqStream with the default priority mix stamped on
// arrivals and the cluster overdriven to ~2.5× the binding resource
// (no controller), so higher-tier arrivals keep landing on a full
// datacenter and the preemption path actually fires — a few hundred
// preemptions per cell, pinned non-vacuous by the equivalence test.
func tieredStream(t testing.TB) workload.Stream {
	t.Helper()
	cfg := eqStreamConfig()
	cfg.Tiers = workload.DefaultTierMix()
	cfg.MeanInterarrival = 1 / (2.5 * 1536 / (6300 * 16.5))
	cfg.Controller = nil
	s, err := cfg.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// eqPlan is the fault plan the under-faults equivalence cells share.
func eqPlan(t testing.TB, horizon int64) *faults.Plan {
	t.Helper()
	tcfg := eqTopology()
	plan, err := faults.Generate(faults.GenConfig{
		Seed: 7, Horizon: horizon,
		Racks: tcfg.Racks, BoxesPerRack: tcfg.BoxesPerRack(),
		Box: faults.TierRates{MTBF: 30000, MTTR: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// eqCase is one cell of the equivalence matrix.
type eqCase struct {
	name   string
	sim    func(t testing.TB) Config       // runner config (the fault surface)
	stream func(t testing.TB) StreamConfig // stop bounds shared by fresh/warm/resume
	src    func(t testing.TB) workload.Stream
}

func eqCases() []eqCase {
	churn := StreamConfig{Workload: StreamWorkload{MaxArrivals: 2500}, Windows: StreamWindows{Warmup: 12600, Window: 6300}}
	faulty := StreamConfig{Workload: StreamWorkload{Duration: 160000}, Windows: StreamWindows{Warmup: 12600, Window: 6300}}
	return []eqCase{
		{
			name:   "churn",
			sim:    func(testing.TB) Config { return Config{} },
			stream: func(testing.TB) StreamConfig { return churn },
			src:    eqStream,
		},
		{
			name:   "churn-retry",
			sim:    func(testing.TB) Config { return Config{Faults: Faults{Retry: true}} },
			stream: func(testing.TB) StreamConfig { return churn },
			src:    eqStream,
		},
		{
			name: "faults-evict-retry",
			sim: func(t testing.TB) Config {
				return Config{Faults: Faults{Plan: eqPlan(t, 160000), Evict: true, Retry: true}}
			},
			stream: func(testing.TB) StreamConfig { return faulty },
			src:    eqStream,
		},
		{
			// The whole tiered fault surface at once: priority mix on
			// arrivals, fault plan, eviction, retry queue and preemption.
			// The snapshot must carry tier counters, per-tier reservoirs
			// and preempted retry entries across the warm/resume boundary.
			name: "tiered-preempt",
			sim: func(t testing.TB) Config {
				return Config{Faults: Faults{Plan: eqPlan(t, 160000), Evict: true, Retry: true, Preempt: true}}
			},
			stream: func(testing.TB) StreamConfig { return faulty },
			src:    tieredStream,
		},
	}
}

// eqRunner builds a pristine state + runner for one cell.
func eqRunner(t testing.TB, alg string, cfg Config) (*sched.State, *Runner) {
	t.Helper()
	st, err := sched.NewState(eqTopology(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(st, eqScheduler(t, alg, st), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, r
}

// deterministic strips the wall-clock-derived fields (latency
// percentile estimates and wall times), which legitimately differ
// between two executions of the same simulation. Everything else —
// counters, windows, utilization integrals, sample counts, simulated
// times — must match bit for bit.
func deterministic(ss *SteadyState) SteadyState {
	c := *ss
	c.LatencyP50, c.LatencyP95, c.LatencyP99 = 0, 0, 0
	c.ReplaceP50, c.ReplaceP95, c.ReplaceP99 = 0, 0, 0
	c.SchedulingTime, c.WallTime = 0, 0
	for t := range c.Tiers {
		c.Tiers[t].LatencyP50, c.Tiers[t].LatencyP95, c.Tiers[t].LatencyP99 = 0, 0, 0
	}
	return c
}

func requireEqual(t *testing.T, fresh, cloned *SteadyState) {
	t.Helper()
	f, c := deterministic(fresh), deterministic(cloned)
	if !reflect.DeepEqual(f, c) {
		t.Errorf("cloned run diverged from fresh run:\nfresh:  %+v\ncloned: %+v", f, c)
	}
}

// TestSnapshotEquivalence is the tentpole acceptance suite: for every
// scheduler × scenario, a warm-then-resume run must report windowed
// metrics bit-identical to an uninterrupted fresh run.
func TestSnapshotEquivalence(t *testing.T) {
	const snapAt = 40000
	for _, tc := range eqCases() {
		for _, alg := range eqAlgorithms {
			t.Run(tc.name+"/"+alg, func(t *testing.T) {
				_, fr := eqRunner(t, alg, tc.sim(t))
				fresh, err := fr.RunStream(tc.src(t), tc.stream(t))
				if err != nil {
					t.Fatal(err)
				}

				warmCfg := tc.stream(t)
				warmCfg.Snapshot.At = snapAt
				_, wr := eqRunner(t, alg, tc.sim(t))
				snap, err := wr.WarmStream(tc.src(t), warmCfg)
				if err != nil {
					t.Fatal(err)
				}
				if snap.T != snapAt || snap.LastT >= snapAt {
					t.Fatalf("snapshot boundary: T=%d LastT=%d, want T=%d LastT<T", snap.T, snap.LastT, snapAt)
				}

				_, rr := eqRunner(t, alg, tc.sim(t))
				resumed, err := rr.ResumeStream(tc.src(t), snap, tc.stream(t))
				if err != nil {
					t.Fatal(err)
				}
				requireEqual(t, fresh, resumed)
				if fresh.Windows == nil || len(fresh.Windows) < 4 {
					t.Fatalf("fixture too small: only %d windows", len(fresh.Windows))
				}
				if tc.name == "tiered-preempt" && fresh.Preempted == 0 {
					t.Error("tiered fixture exercised no preemption")
				}
			})
		}
	}
}

// TestSnapshotSharedAcrossWidths resumes one snapshot from many
// goroutines at once — the worker-pool pattern the experiment ladders
// use — and every resume must agree with the serial one.
func TestSnapshotSharedAcrossWidths(t *testing.T) {
	cfg := StreamConfig{Workload: StreamWorkload{MaxArrivals: 2000}, Windows: StreamWindows{Warmup: 12600, Window: 6300}}
	warm := cfg
	warm.Snapshot.At = 30000
	_, wr := eqRunner(t, "RISA", Config{})
	snap, err := wr.WarmStream(eqStream(t), warm)
	if err != nil {
		t.Fatal(err)
	}
	_, sr := eqRunner(t, "RISA", Config{})
	want, err := sr.ResumeStream(eqStream(t), snap, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const width = 4
	results := make([]*SteadyState, width)
	errs := make([]error, width)
	var wg sync.WaitGroup
	for i := 0; i < width; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := sched.NewState(eqTopology(), network.DefaultConfig())
			if err != nil {
				errs[i] = err
				return
			}
			r, err := NewRunner(st, core.New(st), Config{})
			if err != nil {
				errs[i] = err
				return
			}
			cfgW := workload.DefaultSyntheticConfig()
			cfgW.LifetimeStep = 0
			cfgW.MeanInterarrival = 1 / (0.85 * 1536 / (6300 * 16.5))
			cfgW.Controller = &workload.UtilizationController{Target: 0.85}
			s, err := cfgW.NewStream()
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = r.ResumeStream(s, snap, cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < width; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		requireEqual(t, want, results[i])
	}
}

// TestSnapshotCloneIsDeep: mutating a clone must not reach the original.
func TestSnapshotCloneIsDeep(t *testing.T) {
	warm := StreamConfig{Workload: StreamWorkload{MaxArrivals: 2000}, Windows: StreamWindows{Warmup: 12600, Window: 6300}, Snapshot: StreamSnapshot{At: 30000}}
	_, wr := eqRunner(t, "RISA", Config{Faults: Faults{Plan: eqPlan(t, 160000), Evict: true, Retry: true}})
	snap, err := wr.WarmStream(eqStream(t), warm)
	if err != nil {
		t.Fatal(err)
	}
	clone := snap.Clone()
	if !reflect.DeepEqual(snap, clone) {
		t.Fatal("clone not equal to original")
	}
	if len(clone.Events) > 0 {
		clone.Events[0].T = -99
	}
	if len(clone.State.Assignments) > 0 {
		as := &clone.State.Assignments[0]
		if len(as.CPU.Shares) > 0 {
			as.CPU.Shares[0].Amount = -99
		}
	}
	clone.Windower.Windows = append(clone.Windower.Windows, WindowStats{})
	if reflect.DeepEqual(snap, clone) {
		t.Fatal("mutating the clone reached the original")
	}
}

// TestSnapshotGobRoundtrip: the -snapshot/-restore serialization must
// preserve resumability exactly.
func TestSnapshotGobRoundtrip(t *testing.T) {
	cfg := StreamConfig{Workload: StreamWorkload{MaxArrivals: 2000}, Windows: StreamWindows{Warmup: 12600, Window: 6300}}
	warm := cfg
	warm.Snapshot.At = 30000
	_, wr := eqRunner(t, "RISA", Config{})
	snap, err := wr.WarmStream(eqStream(t), warm)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	decoded := new(Snapshot)
	if err := gob.NewDecoder(&buf).Decode(decoded); err != nil {
		t.Fatal(err)
	}

	_, r1 := eqRunner(t, "RISA", Config{})
	want, err := r1.ResumeStream(eqStream(t), snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, r2 := eqRunner(t, "RISA", Config{})
	got, err := r2.ResumeStream(eqStream(t), decoded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, want, got)
}

// TestResumeCrossAlgorithm: the clone-mode ladders warm with one
// scheduler and resume with another; the resumed run must be
// deterministic (the foreign scheduler starts from its zero state).
func TestResumeCrossAlgorithm(t *testing.T) {
	cfg := StreamConfig{Workload: StreamWorkload{MaxArrivals: 2000}, Windows: StreamWindows{Warmup: 12600, Window: 6300}}
	warm := cfg
	warm.Snapshot.At = 30000
	_, wr := eqRunner(t, "RISA", Config{})
	snap, err := wr.WarmStream(eqStream(t), warm)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range eqAlgorithms {
		var prev *SteadyState
		for rep := 0; rep < 2; rep++ {
			_, rr := eqRunner(t, alg, Config{})
			got, err := rr.ResumeStream(eqStream(t), snap, cfg)
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if got.Algorithm != alg {
				t.Fatalf("resumed run labeled %q, want %q", got.Algorithm, alg)
			}
			if prev != nil {
				requireEqual(t, prev, got)
			}
			prev = got
		}
	}
}

// TestResumePlanFreeWarmWithPlan: a fault-free warm snapshot resumed on
// a runner with a plan schedules the plan's events from the snapshot
// point on — deterministically, and with faults actually striking.
func TestResumePlanFreeWarmWithPlan(t *testing.T) {
	cfg := StreamConfig{Workload: StreamWorkload{Duration: 160000}, Windows: StreamWindows{Warmup: 12600, Window: 6300}}
	warm := cfg
	warm.Snapshot.At = 30000
	_, wr := eqRunner(t, "RISA", Config{})
	snap, err := wr.WarmStream(eqStream(t), warm)
	if err != nil {
		t.Fatal(err)
	}
	if snap.PlanLen != -1 {
		t.Fatalf("plan-free warm snapshot has PlanLen %d", snap.PlanLen)
	}
	var prev *SteadyState
	for rep := 0; rep < 2; rep++ {
		_, rr := eqRunner(t, "RISA", Config{Faults: Faults{Plan: eqPlan(t, 160000), Evict: true}})
		got, err := rr.ResumeStream(eqStream(t), snap, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Displaced == 0 {
			t.Error("plan installed on resume displaced nobody — faults never struck")
		}
		if prev != nil {
			requireEqual(t, prev, got)
		}
		prev = got
	}
}

// TestSnapshotErrors covers the rejection paths.
func TestSnapshotErrors(t *testing.T) {
	cfg := StreamConfig{Workload: StreamWorkload{MaxArrivals: 500}, Windows: StreamWindows{Warmup: 0, Window: 1000}}

	t.Run("warm-requires-snapshot-at", func(t *testing.T) {
		_, r := eqRunner(t, "RISA", Config{})
		if _, err := r.WarmStream(eqStream(t), cfg); err == nil {
			t.Fatal("WarmStream without SnapshotAt succeeded")
		}
	})
	t.Run("stream-ends-before-boundary", func(t *testing.T) {
		warm := cfg
		warm.Snapshot.At = 1 << 40
		_, r := eqRunner(t, "RISA", Config{})
		if _, err := r.WarmStream(eqStream(t), warm); err == nil {
			t.Fatal("snapshot point past the run's end succeeded")
		}
	})
	t.Run("trace-stream-supported", func(t *testing.T) {
		// TraceStream snapshots too (its position is just an index).
		tr := &workload.Trace{Name: "t"}
		for i := 0; i < 200; i++ {
			tr.VMs = append(tr.VMs, workload.VM{ID: i, Arrival: int64(i * 10), Lifetime: 300, Req: units.Vec(2, 2, 2)})
		}
		warm := StreamConfig{Workload: StreamWorkload{MaxArrivals: 200}, Windows: StreamWindows{Window: 500}, Snapshot: StreamSnapshot{At: 900}}
		_, r := eqRunner(t, "RISA", Config{})
		snap, err := r.WarmStream(workload.NewTraceStream(tr), warm)
		if err != nil {
			t.Fatal(err)
		}
		_, r2 := eqRunner(t, "RISA", Config{})
		if _, err := r2.ResumeStream(workload.NewTraceStream(tr), snap, StreamConfig{Workload: StreamWorkload{MaxArrivals: 200}, Windows: StreamWindows{Window: 500}}); err != nil {
			t.Fatal(err)
		}
	})

	warmCfg := cfg
	warmCfg.Snapshot.At = 2000
	_, wr := eqRunner(t, "RISA", Config{})
	snap, err := wr.WarmStream(eqStream(t), warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	plannedCfg := Config{Faults: Faults{Plan: eqPlan(t, 160000)}}
	_, pwr := eqRunner(t, "RISA", plannedCfg)
	warmPlanned := warmCfg
	warmPlanned.Workload.Duration, warmPlanned.Workload.MaxArrivals = 160000, 0
	plannedSnap, err := pwr.WarmStream(eqStream(t), warmPlanned)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("resume-plan-length-mismatch", func(t *testing.T) {
		_, rr := eqRunner(t, "RISA", Config{})
		if _, err := rr.ResumeStream(eqStream(t), plannedSnap, cfg); err == nil {
			t.Fatal("plan-bearing snapshot resumed without a plan")
		}
	})
	t.Run("resume-refuses-snapshot-at", func(t *testing.T) {
		// A resumed run does not capture again: WarmStream is the one
		// capture path.
		_, rr := eqRunner(t, "RISA", Config{})
		if _, err := rr.ResumeStream(eqStream(t), snap, warmCfg); err == nil || !strings.Contains(err.Error(), "only WarmStream") {
			t.Fatalf("ResumeStream with Snapshot.At: err = %v", err)
		}
		if _, err := rr.ResumeStream(eqStream(t), snap, cfg); err != nil {
			t.Fatalf("the refusal left the runner's state dirty: %v", err)
		}
	})
	t.Run("restore-into-dirty-state", func(t *testing.T) {
		st, r := eqRunner(t, "RISA", Config{})
		if _, err := r.sch.Schedule(workload.VM{ID: 1, Lifetime: 10, Req: units.Vec(4, 4, 4)}); err != nil {
			t.Fatal(err)
		}
		_ = st
		if _, err := r.ResumeStream(eqStream(t), snap, cfg); err == nil {
			t.Fatal("resume into a dirty state succeeded")
		}
	})
	t.Run("restore-dimension-mismatch", func(t *testing.T) {
		tcfg := eqTopology()
		tcfg.Racks = 4
		st, err := sched.NewState(tcfg, network.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(st, core.New(st), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ResumeStream(eqStream(t), snap, cfg); err == nil {
			t.Fatal("resume onto a smaller cluster succeeded")
		}
	})
}

// TestCaptureRestoreStateRoundtrip exercises the datacenter-plane
// primitives directly: capture a loaded, partially failed state, restore
// it into a pristine twin, and require every observable to match.
func TestCaptureRestoreStateRoundtrip(t *testing.T) {
	st, err := sched.NewState(eqTopology(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sch := core.New(st)
	var live []*sched.Assignment
	for i := 0; i < 120; i++ {
		a, err := sch.Schedule(workload.VM{ID: i, Lifetime: 1000, Req: units.Vec(1+units.Amount(i%16), 1+units.Amount(i%24), 64)})
		if err == nil {
			live = append(live, a)
		}
	}
	if len(live) < 100 {
		t.Fatalf("only %d live placements", len(live))
	}
	// Release a few to fragment, then fail a box and a link.
	for i := 0; i < len(live); i += 7 {
		sch.Release(live[i])
		live[i] = nil
	}
	compact := live[:0]
	for _, a := range live {
		if a != nil {
			compact = append(compact, a)
		}
	}
	live = compact
	boxes := st.Cluster.Boxes()
	st.Cluster.SetBoxFailed(boxes[3], true)
	failLink, err := st.Fabric.LinkByRef(network.LinkRef{Tier: network.BoxUplink, Rack: 0, Box: 0, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	st.Fabric.SetLinkFailed(failLink, true)

	snap, err := CaptureState(st, sch, live)
	if err != nil {
		t.Fatal(err)
	}

	st2, err := sched.NewState(eqTopology(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sch2 := core.New(st2)
	live2, err := RestoreState(st2, sch2, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(live2) != len(live) {
		t.Fatalf("restored %d assignments, want %d", len(live2), len(live))
	}
	if err := st2.Cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Fabric.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range units.Resources() {
		if st.Cluster.TotalFree(k) != st2.Cluster.TotalFree(k) {
			t.Errorf("%v free: %d vs %d", k, st.Cluster.TotalFree(k), st2.Cluster.TotalFree(k))
		}
	}
	if st.Fabric.IntraRackFree() != st2.Fabric.IntraRackFree() ||
		st.Fabric.InterRackFree() != st2.Fabric.InterRackFree() ||
		st.Fabric.InterPodFree() != st2.Fabric.InterPodFree() {
		t.Error("fabric aggregate frees diverge after restore")
	}
	snap2, err := CaptureState(st2, sch2, live2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, snap2) {
		t.Error("re-captured state differs from the original capture")
	}

	// Both instances must now make identical decisions.
	for i := 0; i < 50; i++ {
		vm := workload.VM{ID: 10000 + i, Lifetime: 10, Req: units.Vec(units.Amount(1+i%8), units.Amount(1+i%8), 32)}
		a1, err1 := sch.Schedule(vm)
		a2, err2 := sch2.Schedule(vm)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("decision %d diverged: %v vs %v", i, err1, err2)
		}
		if err1 == nil {
			if sig1, sig2 := placementSig(st, a1), placementSig(st2, a2); sig1 != sig2 {
				t.Fatalf("decision %d placed differently: %s vs %s", i, sig1, sig2)
			}
		}
	}
}

// placementSig summarizes where an assignment landed, for decision
// comparison across instances.
func placementSig(st *sched.State, a *sched.Assignment) string {
	bpr := st.Cluster.Config().BoxesPerRack()
	box := func(p topology.Placement) int {
		if p.IsZero() {
			return -1
		}
		return p.Box.Rack()*bpr + p.Box.Index()
	}
	return fmt.Sprintf("%d/%d/%d", box(a.CPU), box(a.RAM), box(a.STO))
}

// TestReservoirSnapshotPercentiles pins satellite 4: a restored
// reservoir fed the same remaining values reports bit-identical
// percentiles, including its sampling RNG position.
func TestReservoirSnapshotPercentiles(t *testing.T) {
	r := newReservoir(8, 42)
	for i := 0; i < 100; i++ {
		r.add(float64(i * 37 % 101))
	}
	st := r.state()
	r2 := restoreReservoir(st)

	for i := 100; i < 300; i++ {
		v := float64(i * 61 % 211)
		r.add(v)
		r2.add(v)
	}
	if r.samples() != r2.samples() {
		t.Fatalf("samples: %d vs %d", r.samples(), r2.samples())
	}
	for _, p := range []float64{50, 95, 99} {
		if a, b := r.percentile(p), r2.percentile(p); a != b {
			t.Errorf("p%.0f: %g vs %g", p, a, b)
		}
	}
	if !reflect.DeepEqual(r.vals, r2.vals) {
		t.Error("reservoir buffers diverged — sampling RNG not restored to position")
	}
}

// TestRestoreRejectsTamperedSnapshot feeds the restore path snapshots no
// run could have written — what a damaged -restore file or daemon data
// directory decodes to. Each must come back as an error: no panic, and no
// spin (a zero-length window used to close windows forever), which the
// watchdog would catch.
func TestRestoreRejectsTamperedSnapshot(t *testing.T) {
	cfg := StreamConfig{Workload: StreamWorkload{MaxArrivals: 500}, Windows: StreamWindows{Window: 1000}}
	warm := cfg
	warm.Snapshot.At = 2000
	_, wr := eqRunner(t, "RISA", Config{})
	good, err := wr.WarmStream(eqStream(t), warm)
	if err != nil {
		t.Fatal(err)
	}
	resume := func(snap *Snapshot) error {
		_, r := eqRunner(t, "RISA", Config{})
		_, err := r.ResumeStream(eqStream(t), snap, cfg)
		return err
	}
	if err := resume(good.Clone()); err != nil {
		t.Fatalf("untampered snapshot refused: %v", err)
	}
	tamper := func(f func(*Snapshot)) func() error {
		return func() error {
			snap := good.Clone()
			f(snap)
			return resume(snap)
		}
	}
	queued := workload.VM{ID: 9000, Arrival: 1, Lifetime: 10, Req: units.Vec(1, 1, 1)}
	cases := []struct {
		name string
		run  func() error
	}{
		{"nil-resume", func() error { return resume(nil) }},
		{"nil-restore-driver", func() error {
			st, r := eqRunner(t, "RISA", Config{})
			_, err := RestoreDriver(st, r.sch, nil)
			return err
		}},
		{"zero-window", tamper(func(s *Snapshot) { s.Windower.Window = 0 })},
		{"negative-window", tamper(func(s *Snapshot) { s.Windower.Window = -5 })},
		{"reservoir-k-negative", tamper(func(s *Snapshot) { s.Lat.K = -1 })},
		{"reservoir-k-huge", tamper(func(s *Snapshot) { s.Rep.K = 1 << 40 })},
		{"reservoir-overfull", tamper(func(s *Snapshot) { s.TierLat[1].K, s.TierLat[1].Vals = 2, []float64{1, 2, 3} })},
		{"queued-tier-out-of-range", tamper(func(s *Snapshot) {
			vm := queued
			vm.Tier = workload.NumTiers
			s.Waiting = append(s.Waiting, QueuedVMState{VM: vm})
		})},
		{"flow-path-overlong", tamper(func(s *Snapshot) {
			// Seven healthy links with room: only the fixed six-link path
			// of a flow record refuses them.
			fs := &s.State.Assignments[0].CPURAM
			for len(fs.Links) < 7 {
				fs.Links = append(fs.Links, fs.Links[0])
			}
		})},
		{"queued-lifetime-zero", tamper(func(s *Snapshot) {
			vm := queued
			vm.Lifetime = 0
			s.Waiting = append(s.Waiting, QueuedVMState{VM: vm})
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						done <- fmt.Errorf("panic: %v", p)
					}
				}()
				if err := tc.run(); err != nil {
					done <- nil
					return
				}
				done <- fmt.Errorf("restored without error")
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(3 * time.Second):
				t.Fatal("restore still running after 3 s")
			}
		})
	}
}
