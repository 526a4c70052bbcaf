// The allocation contract of the scheduling hot path, as tier-1 tests: at
// steady state a decision — and the fault, preemption, resume, drive and
// commit paths around it — allocates nothing, on the paper's 18 racks and
// at hyperscale, and a whole run allocates no more than its setup. Every
// zero goes through schedtest.ZeroAllocs on a datacenter of its own; the
// rest of the contract lives beside the code it pins: the event queue in
// internal/sim's TestHeap4PushPopDoesNotAllocate, the fresh-datacenter
// replay in its TestRunOnFreshDatacenterBarelyAllocates, the journal frame
// and the daemon's Place in internal/svc's TestAllocs*.
//
// None of this judges a timing: whether a change made anything faster is
// `go run ./scripts/ci/benchtraj pairs` over bench/'s workloads.
package risa

import (
	"fmt"
	"testing"

	"risa/internal/experiments"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/sched/schedtest"
	"risa/internal/sim"
	"risa/internal/units"
	"risa/internal/workload"
)

// typical is the request every contract below places: the §5.1 mean VM.
var typical = units.Vec(8, 16, 128)

// warmRounds is enough decisions for the assignment slab, the flow pools
// and the scratch high-water marks to settle; steady state starts there.
const warmRounds = 64

// forAlgorithms runs the contract once per scheduler, each on its own
// subtest and its own datacenter.
func forAlgorithms(t *testing.T, contract func(t *testing.T, alg string)) {
	for _, alg := range experiments.Algorithms {
		t.Run(alg, func(t *testing.T) { contract(t, alg) })
	}
}

// newCluster builds a fresh datacenter of the given size and binds alg to it.
func newCluster(t *testing.T, alg string, racks int) (*sched.State, sched.Scheduler) {
	t.Helper()
	setup := experiments.DefaultSetup()
	setup.Topology.Racks = racks
	st, err := setup.NewState()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := experiments.NewScheduler(alg, st)
	if err != nil {
		t.Fatal(err)
	}
	return st, sch
}

// halfLoaded is newCluster pre-loaded to the operating point of Figures 11
// and 12 — 500 typical VMs per 18 racks — and returns the residents.
func halfLoaded(t *testing.T, alg string, racks int) (*sched.State, sched.Scheduler, []*sched.Assignment) {
	t.Helper()
	st, sch := newCluster(t, alg, racks)
	live := make([]*sched.Assignment, 500*racks/18)
	for i := range live {
		a, err := sch.Schedule(workload.VM{ID: i, Lifetime: 1, Req: typical})
		if err != nil {
			t.Fatal(err)
		}
		live[i] = a
	}
	return st, sch, live
}

// scheduleRelease is the steady-state unit of work: one decision and its
// release.
func scheduleRelease(t *testing.T, sch sched.Scheduler) func() {
	vm := workload.VM{ID: 10_000_000, Lifetime: 1, Req: typical}
	return func() {
		a, err := sch.Schedule(vm)
		if err != nil {
			t.Fatal(err)
		}
		sch.Release(a)
	}
}

// TestAllocsScheduleOne: the per-VM decision on a half-loaded cluster, the
// hot path of Figures 11 and 12.
func TestAllocsScheduleOne(t *testing.T) {
	forAlgorithms(t, func(t *testing.T, alg string) {
		_, sch, _ := halfLoaded(t, alg, 18)
		schedtest.ZeroAllocs(t, warmRounds, scheduleRelease(t, sch))
	})
}

// TestAllocsScheduleOneScale: the same decision on the 16384-rack (~100k
// box) cluster, where a stray per-decision allocation would also be a
// cache-behaviour regression. NALB is pinned at 1152 racks instead — its
// global best-uplink scan is Θ(fitting boxes) by definition, so its 16k
// pre-load alone (~450k NALB decisions) would dominate the suite.
func TestAllocsScheduleOneScale(t *testing.T) {
	for _, c := range []struct {
		racks int
		alg   string
	}{{16384, "NULB"}, {16384, "RISA"}, {16384, "RISA-BF"}, {1152, "NALB"}} {
		t.Run(fmt.Sprintf("racks=%d/%s", c.racks, c.alg), func(t *testing.T) {
			_, sch, _ := halfLoaded(t, c.alg, c.racks)
			schedtest.ZeroAllocs(t, warmRounds, scheduleRelease(t, sch))
		})
	}
}

// TestAllocsScheduleOneUnderFaults: every round fails the rack holding a
// resident VM, displaces that VM the way the simulator's eviction does
// (release the record to the pool, schedule the VM afresh, rebind to the
// new record — both records recycle through the assignment pool), makes
// one decision against the degraded cluster, and repairs the rack
// (re-seeding both topology index tiers).
func TestAllocsScheduleOneUnderFaults(t *testing.T) {
	forAlgorithms(t, func(t *testing.T, alg string) {
		st, sch, _ := halfLoaded(t, alg, 18)
		displaced, err := sch.Schedule(workload.VM{ID: 9_999_999, Lifetime: 1, Req: typical})
		if err != nil {
			t.Fatal(err)
		}
		setRackFailed := func(rack int, failed bool) {
			for _, bx := range st.Cluster.Rack(rack).Boxes() {
				st.Cluster.SetBoxFailed(bx, failed)
			}
		}
		decide := scheduleRelease(t, sch)
		schedtest.ZeroAllocs(t, warmRounds, func() {
			rack := displaced.CPU.Box.Rack()
			setRackFailed(rack, true)
			vm := displaced.VM
			st.ReleaseVM(displaced)
			if displaced, err = sch.Schedule(vm); err != nil {
				t.Fatal("half-loaded cluster must absorb the displaced VM")
			}
			decide()
			setRackFailed(rack, false)
		})
	})
}

// TestAllocsScheduleOnePreempt: on a cluster saturated with tier-2
// residents, every round runs the full preemption transaction for a tier-0
// arrival — candidate gathering into the pooled PreemptScratch, eligibility
// filter, cheapest-first sort, hold-and-release, the retry Schedule — and
// then restores saturation by releasing the preemptor and re-placing the
// victim. The arrival's shape equals the fillers', so every round evicts
// exactly one victim and the scratch high-water marks stay put.
func TestAllocsScheduleOnePreempt(t *testing.T) {
	forAlgorithms(t, func(t *testing.T, alg string) {
		st, sch := newCluster(t, alg, 18)
		var live []*sched.Assignment
		for i := 0; ; i++ {
			a, err := sch.Schedule(workload.VM{ID: i, Lifetime: 1, Tier: 2, Req: typical})
			if err != nil {
				break // saturated
			}
			live = append(live, a)
		}
		var ps sched.PreemptScratch
		vm := workload.VM{ID: 10_000_000, Lifetime: 1, Tier: 0, Req: typical}
		schedtest.ZeroAllocs(t, warmRounds, func() {
			ps.Reset()
			for j, la := range live {
				ps.Add(la, j)
			}
			a, k := ps.Preempt(st, sch, vm)
			if a == nil {
				t.Fatal("saturated cluster must yield a victim")
			}
			sch.Release(a)
			for v := 0; v < k; v++ {
				idx := ps.Ref(v)
				victim := live[idx].VM
				st.ReleaseVM(live[idx])
				na, err := sch.Schedule(victim)
				if err != nil {
					t.Fatalf("victim re-place: %v", err)
				}
				live[idx] = na
			}
		})
	})
}

// TestAllocsScheduleOneResumed: the decision on a RESTORED datacenter. A
// half-loaded cluster is captured with sim.CaptureState and rebuilt into a
// pristine state with sim.RestoreState; restore must hand back pools,
// scratch buffers and index tiers as warm as a fresh run leaves them.
func TestAllocsScheduleOneResumed(t *testing.T) {
	forAlgorithms(t, func(t *testing.T, alg string) {
		warm, warmSch, live := halfLoaded(t, alg, 18)
		snap, err := sim.CaptureState(warm, warmSch, live)
		if err != nil {
			t.Fatal(err)
		}
		st, sch := newCluster(t, alg, 18)
		if _, err := sim.RestoreState(st, sch, snap); err != nil {
			t.Fatal(err)
		}
		schedtest.ZeroAllocs(t, warmRounds, scheduleRelease(t, sch))
	})
}

// TestAllocsDriverPlace: the daemon's drive path — one sim.Driver Place is
// the virtual-time advance, the due departure's release, the decision and
// the departure push. Arrivals tick one per unit time with a fixed
// lifetime, so once the pipeline fills every Place releases exactly one
// departure and the pending-event heap stops growing; from there the whole
// place/depart cycle must allocate nothing, or risasvc's worker loop would
// leak garbage at every request.
func TestAllocsDriverPlace(t *testing.T) {
	forAlgorithms(t, func(t *testing.T, alg string) {
		d := sim.NewDriver(newCluster(t, alg, 18))
		const lifetime = 500
		var now int64
		schedtest.ZeroAllocs(t, lifetime+warmRounds, func() {
			now++
			vm := workload.VM{ID: int(now), Arrival: now, Lifetime: lifetime, Req: typical}
			if _, _, err := d.Place(vm); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestAllocsAllocateVM: the shared compute+network placement transaction
// in isolation, under no scheduler.
func TestAllocsAllocateVM(t *testing.T) {
	st, _ := newCluster(t, "NULB", 18)
	rack := st.Cluster.Rack(0)
	boxes := sched.BoxTriple{
		units.CPU:     rack.BoxesOf(units.CPU)[0],
		units.RAM:     rack.BoxesOf(units.RAM)[0],
		units.Storage: rack.BoxesOf(units.Storage)[0],
	}
	vm := workload.VM{ID: 0, Lifetime: 1, Req: typical}
	schedtest.ZeroAllocs(t, warmRounds, func() {
		a, err := st.AllocateVM(vm, boxes, network.FirstFit)
		if err != nil {
			t.Fatal(err)
		}
		st.ReleaseVM(a)
	})
}

// TestAllocsHoldReplay: one resident VM's exact holdings held, released
// and replayed into its own record — the round an undone preemption and a
// refused migration make per VM. Replay re-carves into the record's own
// share buffers and flow slots, so it allocates nothing.
func TestAllocsHoldReplay(t *testing.T) {
	st, _, live := halfLoaded(t, "RISA", 18)
	a := live[len(live)/2]
	var held sched.AssignmentState
	schedtest.ZeroAllocs(t, warmRounds, func() {
		st.Hold(a, &held)
		st.ReleaseVMKeep(a)
		if _, err := st.Replay(a, &held); err != nil {
			t.Fatal(err)
		}
	})
}

// churnCellAllocs bounds one whole 20k-arrival RISA cell at 75 % on 18
// racks (2810–2819 measured). A churn cell pays its setup — fresh
// datacenter, stream, windows, the assignment pool's slabs — so its count
// is not zero; the ceiling is the largest value measured on Go 1.24 plus
// ~2 % headroom for runtime-internal differences between Go versions (1.23
// read 19 fewer of 15894 before a resident VM became one record). A real
// per-event or per-VM leak adds thousands, far past the headroom. It read
// 15894 while every resident VM's first placement allocated its record,
// two flows, their link slices and three share slices separately.
const churnCellAllocs = 2870

// TestAllocsChurnSteadyState: the cell `risasim -exp churn` runs per
// worker — one 20 000-arrival RISA steady-state cell at 75 % occupancy on
// a fresh datacenter, construction included, as a ladder cell pays it —
// held under its ceiling.
func TestAllocsChurnSteadyState(t *testing.T) {
	cfg := sim.StreamConfig{
		Workload: sim.StreamWorkload{MaxArrivals: 20000},
		Windows:  sim.StreamWindows{Warmup: 12600, Window: 6300},
	}
	got := testing.AllocsPerRun(1, func() {
		runner, stream, err := experiments.DefaultSetup().NewCell("RISA", 0.75, workload.TierMix{}, sim.Faults{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.RunStream(stream, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalAccepted == 0 {
			t.Fatal("churn cell placed nothing")
		}
	})
	t.Logf("%.0f allocations a cell", got)
	if got > churnCellAllocs {
		t.Fatalf("a whole cell allocates %.0f objects, ceiling %d", got, churnCellAllocs)
	}
}
