package sim

import (
	"testing"

	"risa/internal/baseline"
	"risa/internal/core"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

func newRunner(t testing.TB, mk func(*sched.State) sched.Scheduler) (*sched.State, *Runner) {
	t.Helper()
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(st, mk(st), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return st, r
}

func smallTrace() *workload.Trace {
	return &workload.Trace{Name: "small", VMs: []workload.VM{
		{ID: 0, Arrival: 0, Lifetime: 100, Req: units.Vec(8, 16, 128)},
		{ID: 1, Arrival: 10, Lifetime: 100, Req: units.Vec(4, 8, 128)},
		{ID: 2, Arrival: 20, Lifetime: 50, Req: units.Vec(16, 32, 128)},
	}}
}

func TestRunSmallTrace(t *testing.T) {
	st, r := newRunner(t, func(s *sched.State) sched.Scheduler { return core.New(s) })
	res, err := r.Run(smallTrace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "RISA" || res.Workload != "small" {
		t.Errorf("labels: %s/%s", res.Algorithm, res.Workload)
	}
	if res.Scheduled != 3 || res.Dropped != 0 {
		t.Errorf("scheduled/dropped = %d/%d", res.Scheduled, res.Dropped)
	}
	if res.InterRack != 0 || res.InterRackPct != 0 {
		t.Errorf("inter-rack = %d (%.1f%%)", res.InterRack, res.InterRackPct)
	}
	if res.Makespan != 110 {
		t.Errorf("makespan = %d, want 110", res.Makespan)
	}
	// Everything departs: the state must be pristine again.
	if st.Cluster.TotalFree(units.CPU) != st.Cluster.TotalCapacity(units.CPU) {
		t.Error("CPU not fully released at end of run")
	}
	if st.Fabric.IntraRackFree() != st.Fabric.IntraRackCapacity() {
		t.Error("bandwidth not fully released at end of run")
	}
	if res.MeanCPURAMLatency != sched.IntraRackCPURAMLatency {
		t.Errorf("mean latency = %v, want 110ns", res.MeanCPURAMLatency)
	}
	if res.PeakPowerW <= 0 || res.EnergyJ <= 0 || res.Eq1EnergyJ <= 0 {
		t.Errorf("power/energy should be positive: %g W, %g J, %g J",
			res.PeakPowerW, res.EnergyJ, res.Eq1EnergyJ)
	}
	if res.PeakUtil[units.Storage] <= 0 || res.AvgUtil[units.Storage] <= 0 {
		t.Error("storage utilization should be positive")
	}
	if res.PeakIntraUtil <= 0 {
		t.Error("intra utilization should be positive")
	}
	if res.PeakInterUtil != 0 {
		t.Error("RISA must not use inter-rack bandwidth here")
	}
}

func TestRunRecordsDrops(t *testing.T) {
	_, r := newRunner(t, func(s *sched.State) sched.Scheduler { return core.New(s) })
	tr := &workload.Trace{Name: "over", VMs: []workload.VM{
		{ID: 0, Arrival: 0, Lifetime: 10, Req: units.Vec(9999, 16, 128)},
	}}
	res, err := r.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 0 || res.Dropped != 1 {
		t.Errorf("scheduled/dropped = %d/%d", res.Scheduled, res.Dropped)
	}
}

func TestRunDeparturesFreeCapacity(t *testing.T) {
	// Two sequential VMs that each need a whole CPU plane's worth of one
	// box: the second fits only because the first departs.
	st, err := sched.NewState(topology.Config{
		Racks: 1, CPUBoxes: 1, RAMBoxes: 1, STOBoxes: 1,
		BricksPerBox: 4, UnitsPerBrick: 4, Units: units.DefaultConfig(),
	}, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(st, core.New(st), Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{Name: "sequential", VMs: []workload.VM{
		{ID: 0, Arrival: 0, Lifetime: 10, Req: units.Vec(64, 16, 128)},
		{ID: 1, Arrival: 10, Lifetime: 10, Req: units.Vec(64, 16, 128)}, // same instant as departure
		{ID: 2, Arrival: 15, Lifetime: 10, Req: units.Vec(64, 16, 128)}, // must drop: VM1 resident
	}}
	res, err := r.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 2 || res.Dropped != 1 {
		t.Errorf("scheduled/dropped = %d/%d, want 2/1 (departure-before-arrival ordering)",
			res.Scheduled, res.Dropped)
	}
}

func TestRunValidatesTrace(t *testing.T) {
	_, r := newRunner(t, func(s *sched.State) sched.Scheduler { return core.New(s) })
	bad := &workload.Trace{Name: "bad", VMs: []workload.VM{
		{ID: 0, Arrival: 10, Lifetime: 10, Req: units.Vec(1, 1, 1)},
		{ID: 1, Arrival: 0, Lifetime: 10, Req: units.Vec(1, 1, 1)},
	}}
	if _, err := r.Run(bad); err == nil {
		t.Error("unordered trace should fail")
	}
}

func TestRunInterRackAccounting(t *testing.T) {
	// NULB on the toy-style state goes inter-rack; use a 2-rack cluster
	// with rack 0's CPU exhausted so RAM lands in rack 0 and CPU in rack 1.
	st, err := sched.NewState(topology.Config{
		Racks: 2, CPUBoxes: 2, RAMBoxes: 2, STOBoxes: 2,
		BricksPerBox: 4, UnitsPerBrick: 4, Units: units.DefaultConfig(),
	}, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range st.Cluster.Rack(0).BoxesOf(units.CPU) {
		if _, err := st.Cluster.Allocate(b, b.Free()); err != nil {
			t.Fatal(err)
		}
	}
	// Shave 1 GB off rack 1's RAM so RAM is strictly the scarcest resource
	// (16/255 > 8/128); the scarce-box search then lands in rack 0, whose
	// CPU is gone, forcing the CPU placement to rack 1.
	if _, err := st.Cluster.Preoccupy(1, 0, units.RAM, 1); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(st, baseline.NewNULB(st), Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{Name: "inter", VMs: []workload.VM{
		{ID: 0, Arrival: 0, Lifetime: 10, Req: units.Vec(8, 16, 128)},
	}}
	res, err := r.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.InterRack != 1 {
		t.Errorf("inter-rack = %d, want 1", res.InterRack)
	}
	if res.InterRackPct != 100 {
		t.Errorf("inter-rack pct = %g, want 100", res.InterRackPct)
	}
	if res.MeanCPURAMLatency != sched.InterRackCPURAMLatency {
		t.Errorf("mean latency = %v, want 330ns", res.MeanCPURAMLatency)
	}
	if res.PeakInterUtil <= 0 {
		t.Error("inter-rack bandwidth should be used")
	}
}

func TestRunSchedulingTimeMeasured(t *testing.T) {
	_, r := newRunner(t, func(s *sched.State) sched.Scheduler { return core.New(s) })
	tr, err := workload.Synthetic(workload.SyntheticConfig{
		N: 50, MeanInterarrival: 10,
		CPUMin: 1, CPUMax: 32, RAMMin: 1, RAMMax: 32, StorageGB: 128,
		LifetimeBase: 100, LifetimeStep: 0, SetSize: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.SchedulingTime <= 0 {
		t.Error("scheduling time should be measured")
	}
}

func TestRunAllAlgorithmsOnSyntheticSlice(t *testing.T) {
	// A 200-VM slice of the synthetic workload: every algorithm must
	// schedule everything (the cluster is far from full) and leave the
	// state pristine.
	cfg := workload.DefaultSyntheticConfig()
	cfg.N = 200
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	makers := map[string]func(*sched.State) sched.Scheduler{
		"NULB":    baseline.NewNULB,
		"NALB":    baseline.NewNALB,
		"RISA":    func(s *sched.State) sched.Scheduler { return core.New(s) },
		"RISA-BF": func(s *sched.State) sched.Scheduler { return core.NewBF(s) },
	}
	for name, mk := range makers {
		st, r := newRunner(t, mk)
		res, err := r.Run(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Dropped != 0 {
			t.Errorf("%s dropped %d of 200", name, res.Dropped)
		}
		if err := st.Cluster.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := st.Fabric.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if st.Fabric.IntraRackFree() != st.Fabric.IntraRackCapacity() {
			t.Errorf("%s leaked bandwidth", name)
		}
	}
}

func TestResultUtilizationSanity(t *testing.T) {
	_, r := newRunner(t, func(s *sched.State) sched.Scheduler { return core.New(s) })
	cfg := workload.DefaultSyntheticConfig()
	cfg.N = 300
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range units.Resources() {
		if res.AvgUtil[k] < 0 || res.AvgUtil[k] > 100 {
			t.Errorf("avg util %v out of range: %g", k, res.AvgUtil[k])
		}
		if res.PeakUtil[k] < res.AvgUtil[k] {
			t.Errorf("peak %v below average", k)
		}
	}
	if res.PeakIntraUtil < res.AvgIntraUtil {
		t.Error("peak intra below average")
	}
	if res.AvgPowerW > res.PeakPowerW {
		t.Error("avg power above peak")
	}
}

func TestSampling(t *testing.T) {
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(st, core.New(st), Config{SampleEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(smallTrace()) // makespan 110
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("sampling enabled but no samples")
	}
	// First sample at t=0, last at makespan.
	if res.Samples[0].T != 0 {
		t.Errorf("first sample at %d", res.Samples[0].T)
	}
	if last := res.Samples[len(res.Samples)-1]; last.T != res.Makespan {
		t.Errorf("last sample at %d, want %d", last.T, res.Makespan)
	}
	// Samples are time-ordered and resident counts return to zero.
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].T < res.Samples[i-1].T {
			t.Fatal("samples out of order")
		}
	}
	if res.Samples[len(res.Samples)-1].Resident != 0 {
		t.Error("all VMs depart by makespan")
	}
	// Mid-run samples show residency and utilization.
	sawResident := false
	for _, s := range res.Samples {
		if s.Resident > 0 && s.Util[units.Storage] > 0 && s.PowerW > 0 {
			sawResident = true
		}
	}
	if !sawResident {
		t.Error("no mid-run sample captured live state")
	}
}

func TestSamplingDisabledByDefault(t *testing.T) {
	_, r := newRunner(t, func(s *sched.State) sched.Scheduler { return core.New(s) })
	res, err := r.Run(smallTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 0 {
		t.Error("sampling should be off by default")
	}
}

func TestNegativeSampleIntervalRejected(t *testing.T) {
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(st, core.New(st), Config{SampleEvery: -1}); err == nil {
		t.Error("negative interval should fail")
	}
}

func TestRetryQueuePlacesAfterDeparture(t *testing.T) {
	// One-box-per-kind cluster: VM 1 arrives while VM 0 holds all CPU;
	// with the retry queue it waits and is placed when VM 0 departs.
	st, err := sched.NewState(topology.Config{
		Racks: 1, CPUBoxes: 1, RAMBoxes: 1, STOBoxes: 1,
		BricksPerBox: 4, UnitsPerBrick: 4, Units: units.DefaultConfig(),
	}, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(st, core.New(st), Config{Faults: Faults{Retry: true}})
	if err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{Name: "retry", VMs: []workload.VM{
		{ID: 0, Arrival: 0, Lifetime: 100, Req: units.Vec(64, 16, 128)},
		{ID: 1, Arrival: 10, Lifetime: 50, Req: units.Vec(64, 16, 128)},
	}}
	res, err := r.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 2 || res.Dropped != 0 {
		t.Fatalf("scheduled/dropped = %d/%d, want 2/0", res.Scheduled, res.Dropped)
	}
	if res.Enqueued != 1 || res.RetrySucceeded != 1 {
		t.Errorf("queue stats: enqueued %d, succeeded %d", res.Enqueued, res.RetrySucceeded)
	}
	// VM 1 waited from t=10 until VM 0's departure at t=100.
	if res.MeanWait != 90 {
		t.Errorf("mean wait = %g, want 90", res.MeanWait)
	}
	// Its lifetime started at placement: departure at 150 → makespan 150.
	if res.Makespan != 150 {
		t.Errorf("makespan = %d, want 150", res.Makespan)
	}
}

func TestRetryQueueAbandonsAtEnd(t *testing.T) {
	st, err := sched.NewState(topology.Config{
		Racks: 1, CPUBoxes: 1, RAMBoxes: 1, STOBoxes: 1,
		BricksPerBox: 4, UnitsPerBrick: 4, Units: units.DefaultConfig(),
	}, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(st, core.New(st), Config{Faults: Faults{Retry: true}})
	if err != nil {
		t.Fatal(err)
	}
	// The second VM can never fit (65 cores > box) and must be dropped
	// at the end, not lost.
	tr := &workload.Trace{Name: "abandon", VMs: []workload.VM{
		{ID: 0, Arrival: 0, Lifetime: 10, Req: units.Vec(8, 8, 128)},
		{ID: 1, Arrival: 1, Lifetime: 10, Req: units.Vec(65, 8, 128)},
	}}
	res, err := r.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 1 || res.Dropped != 1 {
		t.Errorf("scheduled/dropped = %d/%d", res.Scheduled, res.Dropped)
	}
	if res.Enqueued != 1 || res.RetrySucceeded != 0 {
		t.Errorf("queue stats: %d/%d", res.Enqueued, res.RetrySucceeded)
	}
}

func TestRetryQueuePreservesFIFO(t *testing.T) {
	// Two waiting VMs; the head is large, the second small. FIFO means
	// the small one must NOT jump the queue even though it would fit.
	st, err := sched.NewState(topology.Config{
		Racks: 1, CPUBoxes: 1, RAMBoxes: 1, STOBoxes: 1,
		BricksPerBox: 4, UnitsPerBrick: 4, Units: units.DefaultConfig(),
	}, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(st, core.New(st), Config{Faults: Faults{Retry: true}})
	if err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{Name: "fifo", VMs: []workload.VM{
		{ID: 0, Arrival: 0, Lifetime: 100, Req: units.Vec(40, 16, 128)},
		{ID: 1, Arrival: 10, Lifetime: 100, Req: units.Vec(60, 16, 128)}, // waits (40+60 > 64)
		{ID: 2, Arrival: 20, Lifetime: 100, Req: units.Vec(10, 16, 128)}, // would fit, but FIFO
	}}
	res, err := r.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	// At t=100 VM 0 departs; VM 1 places (departs 200), then VM 2 places
	// immediately too (60+10 ≤ 64? No: 60+10 = 70 > 64 — VM 2 waits for
	// VM 1). At t=200 VM 2 places, departing at 300.
	if res.Scheduled != 3 || res.Dropped != 0 {
		t.Fatalf("scheduled/dropped = %d/%d", res.Scheduled, res.Dropped)
	}
	if res.Makespan != 300 {
		t.Errorf("makespan = %d, want 300 (strict FIFO)", res.Makespan)
	}
}

// freshRunAllocs bounds what one replay of the §5.1 trace allocates on a
// datacenter built beforehand: the run's own setup plus two allocations
// per 64-record slab (64–76 measured across Go 1.23/1.24 and under the race
// detector, plus ~2 % headroom for runtime-internal differences; 17091
// while a VM's record, two flows, their link slices grown by append, three
// share slices and the slice InterPod built were separate objects). A
// per-VM leak adds 2500, far past the headroom.
const freshRunAllocs = 78

// TestRunOnFreshDatacenterBarelyAllocates pins the cold path: the paper's
// figures replay every trace on a fresh datacenter, so every pool starts
// empty and each resident VM's first placement is a pool miss. A VM is one
// record drawn from a slab — its two flows and their link paths live inside
// it — so a whole run stays under freshRunAllocs, a thirtieth of an
// allocation per VM.
func TestRunOnFreshDatacenterBarelyAllocates(t *testing.T) {
	tr, err := workload.Synthetic(workload.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	var fresh []*Runner // AllocsPerRun makes one warm-up call, then runs
	for i := 0; i <= runs; i++ {
		_, r := newRunner(t, func(s *sched.State) sched.Scheduler { return baseline.NewNULB(s) })
		fresh = append(fresh, r)
	}
	perRun := testing.AllocsPerRun(runs, func() {
		r := fresh[0]
		fresh = fresh[1:]
		res, err := r.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scheduled != tr.Len() {
			t.Fatalf("placed %d of %d", res.Scheduled, tr.Len())
		}
	})
	t.Logf("%.0f allocations a run, %.3f per VM", perRun, perRun/float64(tr.Len()))
	if perRun > freshRunAllocs {
		t.Fatalf("a fresh-datacenter run allocates %.0f objects, ceiling %d", perRun, freshRunAllocs)
	}
}
