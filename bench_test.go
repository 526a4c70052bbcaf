// Benchmarks of the decision hot path and the engines under it. Each is
// kept because a CI step runs it — scripts/ci/allocguard.sh (its allocs/op
// pinned in scripts/ci/allocs-baseline.txt) or the bench-smoke job (one
// iteration: it must still compile and not panic):
//
//	BenchmarkScheduleOne/<alg>                → allocguard.sh, bench-smoke
//	BenchmarkScheduleOneAllocs/<alg>          → allocguard.sh, bench-smoke
//	BenchmarkScheduleOneUnderFaults/<alg>     → allocguard.sh, bench-smoke
//	BenchmarkScheduleOnePreempt/<alg>         → allocguard.sh, bench-smoke
//	BenchmarkScheduleOneResumed/<alg>         → allocguard.sh, bench-smoke
//	BenchmarkDriverPlace/<alg>                → allocguard.sh
//	BenchmarkEventQueue/pending=<n>           → allocguard.sh
//	BenchmarkScheduleOneScale/racks=<n>/<alg> → allocguard.sh, bench-smoke
//	BenchmarkAllocateVM                       → allocguard.sh
//	BenchmarkProposeCommit/<alg>              → allocguard.sh
//	BenchmarkRunFresh                         → allocguard.sh
//	BenchmarkChurnSteadyState                 → allocguard.sh, bench-smoke
//	BenchmarkChurnAgents/agents<n>            → allocguard.sh, bench-smoke
//	BenchmarkIntraRackPool                    → bench-smoke
//	BenchmarkExperimentGrid                   → bench-smoke
//
// None of them judges a timing: the paper's tables and figures come from
// `risasim -exp <name>` (DESIGN.md §5), and whether a change made anything
// faster is `go run ./scripts/ci/benchtraj pairs` over bench/'s workloads.
package risa

import (
	"fmt"
	"runtime"
	"testing"

	"risa/internal/core"
	"risa/internal/experiments"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// BenchmarkScheduleOne measures the per-VM scheduling decision on a
// half-loaded cluster — the hot path of Figures 11 and 12.
func BenchmarkScheduleOne(b *testing.B) {
	for _, alg := range experiments.Algorithms {
		b.Run(alg, func(b *testing.B) {
			st, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			sch, err := experiments.NewScheduler(alg, st)
			if err != nil {
				b.Fatal(err)
			}
			// Pre-load the cluster to a realistic operating point.
			for i := 0; i < 500; i++ {
				vm := workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)}
				if _, err := sch.Schedule(vm); err != nil {
					b.Fatal(err)
				}
			}
			vm := workload.VM{ID: 10_000, Lifetime: 1, Req: units.Vec(8, 16, 128)}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := sch.Schedule(vm)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				sch.Release(a)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkScheduleOneAllocs asserts the zero-allocation contract of the
// steady-state decision path: after the pools and scratch buffers have
// warmed up, one Schedule+Release round trip performs zero heap
// allocations under every algorithm. Unlike a plain -benchmem report it
// FAILS when the contract breaks (testing.AllocsPerRun), which makes it
// the enforcement point behind scripts/ci/allocguard.sh: any change that
// re-introduces a per-decision allocation turns CI red instead of quietly
// regressing the churn throughput.
func BenchmarkScheduleOneAllocs(b *testing.B) {
	for _, alg := range experiments.Algorithms {
		b.Run(alg, func(b *testing.B) {
			st, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			sch, err := experiments.NewScheduler(alg, st)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				vm := workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)}
				if _, err := sch.Schedule(vm); err != nil {
					b.Fatal(err)
				}
			}
			vm := workload.VM{ID: 10_000, Lifetime: 1, Req: units.Vec(8, 16, 128)}
			round := func() {
				a, err := sch.Schedule(vm)
				if err != nil {
					b.Fatal(err)
				}
				sch.Release(a)
			}
			// Warm the assignment/flow pools and the scratch high-water
			// marks; steady state starts after the first few decisions.
			for i := 0; i < 64; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(200, round); avg != 0 {
				b.Fatalf("%s: %.2f allocs/op at steady state, want 0", alg, avg)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkScheduleOneUnderFaults asserts the zero-allocation contract
// of the fault path: every iteration fails the rack holding a resident
// VM, displaces that VM through core.Displace (the eviction transaction
// — its records must recycle through the assignment and flow pools),
// makes one Schedule+Release decision against the degraded cluster, and
// repairs the rack (re-seeding both topology index tiers). Like
// BenchmarkScheduleOneAllocs it FAILS on any steady-state allocation,
// and scripts/ci/allocguard.sh pins it at 0 allocs/op.
func BenchmarkScheduleOneUnderFaults(b *testing.B) {
	for _, alg := range experiments.Algorithms {
		b.Run(alg, func(b *testing.B) {
			st, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			sch, err := experiments.NewScheduler(alg, st)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				vm := workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)}
				if _, err := sch.Schedule(vm); err != nil {
					b.Fatal(err)
				}
			}
			setRackFailed := func(rack int, failed bool) {
				for _, bx := range st.Cluster.Rack(rack).Boxes() {
					st.Cluster.SetBoxFailed(bx, failed)
				}
			}
			displaced, err := sch.Schedule(workload.VM{ID: 9_999, Lifetime: 1, Req: units.Vec(8, 16, 128)})
			if err != nil {
				b.Fatal(err)
			}
			vm := workload.VM{ID: 10_000, Lifetime: 1, Req: units.Vec(8, 16, 128)}
			round := func() {
				rack := displaced.CPU.Box.Rack()
				setRackFailed(rack, true)
				if !core.Displace(st, sch, displaced) {
					b.Fatal("half-loaded cluster must absorb the displaced VM")
				}
				a, err := sch.Schedule(vm)
				if err != nil {
					b.Fatal(err)
				}
				sch.Release(a)
				setRackFailed(rack, false)
			}
			// Warm the pools and scratch high-water marks.
			for i := 0; i < 64; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(200, round); avg != 0 {
				b.Fatalf("%s: %.2f allocs/op on the fault path at steady state, want 0", alg, avg)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkScheduleOnePreempt asserts the zero-allocation contract of
// the preemption path: on a saturated cluster of tier-2 residents, every
// iteration runs the full preemption transaction for a tier-0 arrival —
// candidate gathering into the pooled PreemptScratch, eligibility filter,
// cheapest-first sort, hold-and-release, the retry Schedule — and then
// restores saturation by releasing the preemptor and re-placing the
// victim. The arrival's shape equals the fillers', so every round evicts
// exactly one victim and the scratch high-water marks stay put. Enforced
// at 0 allocs/op by scripts/ci/allocguard.sh like the other ScheduleOne
// contracts.
func BenchmarkScheduleOnePreempt(b *testing.B) {
	for _, alg := range experiments.Algorithms {
		b.Run(alg, func(b *testing.B) {
			st, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			sch, err := experiments.NewScheduler(alg, st)
			if err != nil {
				b.Fatal(err)
			}
			// Saturate with tier-2 fillers: stop at the first rejection.
			var live []*sched.Assignment
			for i := 0; ; i++ {
				vm := workload.VM{ID: i, Lifetime: 1, Tier: 2, Req: units.Vec(8, 16, 128)}
				a, err := sch.Schedule(vm)
				if err != nil {
					break
				}
				live = append(live, a)
			}
			var scr sched.Scratch
			vm := workload.VM{ID: 10_000, Lifetime: 1, Tier: 0, Req: units.Vec(8, 16, 128)}
			round := func() {
				ps := scr.Preemption()
				ps.Reset()
				for j, la := range live {
					ps.Add(la, j)
				}
				a, k := core.Preempt(st, sch, ps, vm)
				if a == nil {
					b.Fatal("saturated cluster must yield a victim")
				}
				// Restore saturation: the preemptor leaves, the victims
				// re-place into the capacity it freed, records recycling
				// through the pool.
				sch.Release(a)
				for v := 0; v < k; v++ {
					idx := ps.Ref(v)
					vmv := live[idx].VM
					st.ReleaseVM(live[idx])
					na, err := sch.Schedule(vmv)
					if err != nil {
						b.Fatalf("victim re-place: %v", err)
					}
					live[idx] = na
				}
			}
			// Warm the pools and the scratch high-water marks.
			for i := 0; i < 64; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(200, round); avg != 0 {
				b.Fatalf("%s: %.2f allocs/op on the preempt path at steady state, want 0", alg, avg)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkScheduleOneResumed asserts the zero-allocation contract of
// the decision path on a RESTORED datacenter: a half-loaded cluster is
// captured with sim.CaptureState and rebuilt into a pristine state with
// sim.RestoreState, and steady-state Schedule+Release rounds on the
// restored side must allocate nothing — restore must hand back pools,
// scratch buffers and index tiers as warm as a fresh run leaves them.
// Enforced at 0 allocs/op by scripts/ci/allocguard.sh, like the other
// ScheduleOne contracts.
func BenchmarkScheduleOneResumed(b *testing.B) {
	for _, alg := range experiments.Algorithms {
		b.Run(alg, func(b *testing.B) {
			warm, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			warmSch, err := experiments.NewScheduler(alg, warm)
			if err != nil {
				b.Fatal(err)
			}
			live := make([]*sched.Assignment, 0, 500)
			for i := 0; i < 500; i++ {
				vm := workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)}
				a, err := warmSch.Schedule(vm)
				if err != nil {
					b.Fatal(err)
				}
				live = append(live, a)
			}
			snap, err := sim.CaptureState(warm, warmSch, live)
			if err != nil {
				b.Fatal(err)
			}
			st, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			sch, err := experiments.NewScheduler(alg, st)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.RestoreState(st, sch, snap); err != nil {
				b.Fatal(err)
			}
			vm := workload.VM{ID: 10_000, Lifetime: 1, Req: units.Vec(8, 16, 128)}
			round := func() {
				a, err := sch.Schedule(vm)
				if err != nil {
					b.Fatal(err)
				}
				sch.Release(a)
			}
			// Warm the assignment/flow pools and scratch high-water marks;
			// restore itself pre-populates the placement side.
			for i := 0; i < 64; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(200, round); avg != 0 {
				b.Fatalf("%s: %.2f allocs/op on the resumed path at steady state, want 0", alg, avg)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkDriverPlace asserts the zero-allocation contract of the
// daemon's drive path: one sim.Driver Place — virtual-time advance, the
// due departure's release, the scheduling decision, and the departure
// push — at steady residency. Arrivals tick one per unit time with a
// fixed lifetime, so once the pipeline fills every Place releases
// exactly one departure and the pending-event heap stops growing; from
// there the whole place/depart cycle must allocate nothing, or risasvc's
// worker loop would leak garbage at every request. Enforced at
// 0 allocs/op by scripts/ci/allocguard.sh like the ScheduleOne contracts.
func BenchmarkDriverPlace(b *testing.B) {
	for _, alg := range experiments.Algorithms {
		b.Run(alg, func(b *testing.B) {
			st, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			sch, err := experiments.NewScheduler(alg, st)
			if err != nil {
				b.Fatal(err)
			}
			d := sim.NewDriver(st, sch)
			const lifetime = 500
			id := 0
			var now int64
			round := func() {
				id++
				now++
				vm := workload.VM{ID: id, Arrival: now, Lifetime: lifetime, Req: units.Vec(8, 16, 128)}
				if _, _, err := d.Place(vm); err != nil {
					b.Fatal(err)
				}
			}
			// Fill the pipeline: after `lifetime` rounds one VM departs per
			// arrival, residency holds at `lifetime`, and the event heap's
			// backing array has reached its high-water mark.
			for i := 0; i < lifetime+64; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(200, round); avg != 0 {
				b.Fatalf("%s: %.2f allocs/op on the drive path at steady state, want 0", alg, avg)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// shellScheduler places nothing: Schedule hands out a recycled record and
// Release takes it back, so a Driver over it costs the event core alone.
type shellScheduler struct{ free []*sched.Assignment }

func (s *shellScheduler) Name() string { return "shell" }

func (s *shellScheduler) Schedule(vm workload.VM) (*sched.Assignment, error) {
	var a *sched.Assignment
	if n := len(s.free); n > 0 {
		a, s.free = s.free[n-1], s.free[:n-1]
	} else {
		a = &sched.Assignment{}
	}
	a.VM = vm
	return a, nil
}

func (s *shellScheduler) Release(a *sched.Assignment) { s.free = append(s.free, a) }

// BenchmarkEventQueue measures the pending-event queue at steady state —
// per op one arrival's push and, on average, one departure's pop — at the
// resident counts of the repo benchmark's churn-18r (~560 departures
// pending) and scale-4608r (~229 000) workloads. The queue is unexported,
// so it is driven through sim.Driver over a scheduler that does nothing;
// lifetimes spread over [pending/2, 3·pending/2) time units at one
// arrival per unit, so pushes sift, pops descend the full depth, and
// (t, kind) ties are constant. Pinned at 0 allocs/op by allocguard.sh.
func BenchmarkEventQueue(b *testing.B) {
	for _, pending := range []int64{560, 229_000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			st, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			d := sim.NewDriver(st, &shellScheduler{})
			var now int64
			lcg := uint64(1)
			round := func() {
				now++
				lcg = lcg*6364136223846793005 + 1442695040888963407
				vm := workload.VM{ID: int(now), Arrival: now, Lifetime: pending/2 + int64(lcg>>33)%pending, Req: units.Vec(8, 16, 128)}
				if _, _, err := d.Place(vm); err != nil {
					b.Fatal(err)
				}
			}
			for i := int64(0); i < 2*pending; i++ {
				round()
			}
			if got := int64(d.Resident()); got < pending*9/10 || got > pending*11/10 {
				b.Fatalf("%d departures pending at steady state, want about %d", got, pending)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkScheduleOneScale is BenchmarkScheduleOne across cluster sizes:
// the same per-VM decision on clusters from the paper's 18 racks up to
// 16384 (~100k boxes), pre-loaded to the same per-rack operating point.
// With the candidate index and the SoA free vectors the decision time must
// stay near-flat in rack count for NULB/RISA/RISA-BF (compare racks=18 vs
// racks=16384 per algorithm). NALB is the exception by definition: its global
// best-uplink scan is Θ(fitting boxes), so skip its top rungs when a run
// needs to stay cheap (the pre-load alone is ~450k NALB decisions there).
func BenchmarkScheduleOneScale(b *testing.B) {
	for _, racks := range experiments.ScaleLadder(experiments.DefaultScaleMaxRacks) {
		b.Run(fmt.Sprintf("racks=%d", racks), func(b *testing.B) {
			for _, alg := range experiments.Algorithms {
				b.Run(alg, func(b *testing.B) {
					setup := experiments.DefaultSetup()
					setup.Topology.Racks = racks
					st, err := setup.NewState()
					if err != nil {
						b.Fatal(err)
					}
					sch, err := experiments.NewScheduler(alg, st)
					if err != nil {
						b.Fatal(err)
					}
					// Pre-load to BenchmarkScheduleOne's operating point
					// (500 VMs on 18 racks), scaled with the cluster.
					for i := 0; i < 500*racks/18; i++ {
						vm := workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)}
						if _, err := sch.Schedule(vm); err != nil {
							b.Fatal(err)
						}
					}
					vm := workload.VM{ID: 10_000_000, Lifetime: 1, Req: units.Vec(8, 16, 128)}
					// Measure the whole Schedule+Release round rather than
					// excluding Release behind StopTimer/StartTimer as
					// BenchmarkScheduleOne does: each StopTimer runs a
					// stop-the-world ReadMemStats whose cost grows with the
					// heap, so at the 16384-rack rung (~170 MB of state) the
					// per-iteration pause pollutes the measurement ~2×
					// and fakes a scale regression (profile: readmemstats_m
					// +22%, mcache flushes, procresize). The pair is the
					// steady-state unit of work anyway, and Release is the
					// cheap half.
					b.ResetTimer()
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						a, err := sch.Schedule(vm)
						if err != nil {
							b.Fatal(err)
						}
						sch.Release(a)
					}
				})
			}
		})
	}
}

// BenchmarkIntraRackPool measures RISA's INTRA_RACK_POOL construction —
// one FitsWholeVM probe per rack on a half-loaded cluster. This is the
// query the incremental free-capacity index serves in O(1) amortized per
// rack; before the index every probe rescanned the rack's boxes.
func BenchmarkIntraRackPool(b *testing.B) {
	st, err := experiments.DefaultSetup().NewState()
	if err != nil {
		b.Fatal(err)
	}
	sch, err := experiments.NewScheduler("RISA", st)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		vm := workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)}
		if _, err := sch.Schedule(vm); err != nil {
			b.Fatal(err)
		}
	}
	req := units.Vec(8, 16, 128)
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		pool := 0
		for i := 0; i < b.N; i++ {
			for _, rack := range st.Cluster.Racks() {
				if rack.FitsWholeVM(req) {
					pool++
				}
			}
		}
		if pool == 0 {
			b.Fatal("no rack ever fit the typical VM")
		}
	})
	// The pre-index pool build, for comparison: every probe rescans the
	// rack's boxes per resource.
	b.Run("bruteforce", func(b *testing.B) {
		b.ReportAllocs()
		pool := 0
		for i := 0; i < b.N; i++ {
		racks:
			for _, rack := range st.Cluster.Racks() {
				for _, k := range units.Resources() {
					if req[k] == 0 {
						continue
					}
					var max units.Amount
					for _, box := range rack.BoxesOf(k) {
						if f := box.Free(); f > max {
							max = f
						}
					}
					if max < req[k] {
						continue racks
					}
				}
				pool++
			}
		}
		if pool == 0 {
			b.Fatal("no rack ever fit the typical VM")
		}
	})
}

// BenchmarkExperimentGrid runs a 12-cell experiment grid (3 synthetic
// seeds × 4 algorithms) serially and on the worker pool; the ratio is the
// wall-clock speedup of the parallel experiment engine.
func BenchmarkExperimentGrid(b *testing.B) {
	setup := experiments.DefaultSetup()
	var jobs []experiments.Job
	for _, seed := range []int64{1, 2, 3} {
		s := setup
		s.Seed = seed
		tr, err := s.SyntheticTrace()
		if err != nil {
			b.Fatal(err)
		}
		for _, alg := range experiments.Algorithms {
			jobs = append(jobs, experiments.Job{Setup: s, Algorithm: alg, Trace: tr})
		}
	}
	widths := []int{1, runtime.GOMAXPROCS(0)}
	if widths[1] == 1 {
		// Single-core machine: the second width measures pool overhead
		// rather than speedup.
		widths[1] = 4
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			eng := experiments.Engine{Workers: workers}
			for i := 0; i < b.N; i++ {
				if err := experiments.FirstError(eng.Run(jobs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocateVM measures the shared compute+network placement
// transaction in isolation.
func BenchmarkAllocateVM(b *testing.B) {
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rack := st.Cluster.Rack(0)
	boxes := sched.BoxTriple{
		units.CPU:     rack.BoxesOf(units.CPU)[0],
		units.RAM:     rack.BoxesOf(units.RAM)[0],
		units.Storage: rack.BoxesOf(units.Storage)[0],
	}
	vm := workload.VM{ID: 0, Lifetime: 1, Req: units.Vec(8, 16, 128)}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := st.AllocateVM(vm, boxes, network.FirstFit)
		if err != nil {
			b.Fatal(err)
		}
		st.ReleaseVM(a)
	}
}

// BenchmarkRunFresh is the cold path as a whole run: the §5.1 trace through
// NULB on a datacenter nothing has been placed on yet, which is how every
// cell of the paper's figures runs. Building the datacenter is outside the
// timer, so allocs/op is what the 2500 placements and the run's own setup
// allocate — every pool starts empty, and a resident VM must still cost one
// slab-drawn record (DESIGN.md §9), not a handful of objects. Guarded at
// -benchtime 1x by scripts/ci/allocguard.sh.
func BenchmarkRunFresh(b *testing.B) {
	setup := experiments.DefaultSetup()
	tr, err := setup.SyntheticTrace()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := setup.NewState()
		if err != nil {
			b.Fatal(err)
		}
		sch, err := experiments.NewScheduler("NULB", st)
		if err != nil {
			b.Fatal(err)
		}
		runner, err := sim.NewRunner(st, sch, sim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := runner.Run(tr)
		if err != nil {
			b.Fatal(err)
		}
		if res.Scheduled != tr.Len() {
			b.Fatalf("placed %d of %d", res.Scheduled, tr.Len())
		}
	}
}

// BenchmarkChurnSteadyState measures sustained steady-state scheduling
// throughput: one 20 000-arrival controlled churn cell (RISA, 75 %
// target occupancy) per iteration, reporting warmup-included
// placements/sec as the headline metric. The stream engine pulls
// arrivals lazily, so the measured rate is what `risasim -exp churn`
// sustains per worker.
func BenchmarkChurnSteadyState(b *testing.B) {
	setup := experiments.DefaultSetup()
	cfg := sim.StreamConfig{Workload: sim.StreamWorkload{MaxArrivals: 20000}, Windows: sim.StreamWindows{Warmup: 12600, Window: 6300}}
	var perSec float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := runChurnCell(setup, 0.75, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalAccepted == 0 {
			b.Fatal("churn cell placed nothing")
		}
		perSec = res.PlacementsPerSec()
	}
	b.ReportMetric(perSec, "placements/s")
}

// runChurnCell runs one RISA steady-state cell at the target occupancy on
// a fresh datacenter — construction included, as a ladder cell pays it.
func runChurnCell(setup experiments.Setup, target float64, cfg sim.StreamConfig) (*sim.SteadyState, error) {
	runner, stream, err := setup.NewCell("RISA", target, workload.TierMix{})
	if err != nil {
		return nil, err
	}
	return runner.RunStream(stream, cfg)
}

// BenchmarkChurnAgents measures the concurrent-agent speedup on a
// network-gated churn cell: 96 racks with thin box uplinks at an 80 %
// occupancy target, where a large fraction of arrivals exhausts both
// placement tiers — the regime where serial scheduling burns most of its
// time proving drops, and where the agent pool's parallel conclusive
// certificates pay off. agents1 runs the bit-identical serial path;
// agents4 fans proposals over four shards and commits serially. (No
// hyphen before the count: allocguard's name normalizer strips a
// trailing -<digits> GOMAXPROCS suffix, which would eat "-4".)
//
// Two throughput metrics per sub-benchmark: wall-p/s divides by the
// host's observed wall time, sched-p/s by the critical-path
// SchedulingTime (settle + slowest agent's propose per round + serial
// commit section — see DESIGN.md §12). On a host with a core per agent
// the two converge; on fewer cores wall-p/s understates the speedup by
// the timeslicing factor while sched-p/s stays the scaling figure;
// EXPERIMENTS.md records the measured ratios.
func BenchmarkChurnAgents(b *testing.B) {
	for _, agents := range []int{1, 4} {
		b.Run(fmt.Sprintf("agents%d", agents), func(b *testing.B) {
			setup := experiments.DefaultSetup()
			setup.Topology.Racks = 96
			setup.Network.BoxUplinks = 4
			cfg := sim.StreamConfig{
				Workload:    sim.StreamWorkload{MaxArrivals: 20000},
				Windows:     sim.StreamWindows{Warmup: 12600, Window: 6300},
				Concurrency: sim.StreamConcurrency{Agents: agents, Round: 64 * min(agents-1, 1)},
			}
			var wallPS, schedPS float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := runChurnCell(setup, 0.80, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalAccepted == 0 {
					b.Fatal("churn cell placed nothing")
				}
				wallPS = res.PlacementsPerSec()
				schedPS = float64(res.TotalAccepted) / res.SchedulingTime.Seconds()
			}
			b.ReportMetric(wallPS, "wall-p/s")
			b.ReportMetric(schedPS, "sched-p/s")
		})
	}
}

// BenchmarkProposeCommit pins the zero-allocation contract of the agent
// commit path under every algorithm: one settle + Propose +
// CommitProposal + release per iteration, the exact per-VM sequence the
// agent loop's happy path performs (the shared State.Probe sits on every
// Proposer's path). Guarded at 0 allocs/op by scripts/ci/allocguard.sh
// next to the serial Schedule benchmarks.
func BenchmarkProposeCommit(b *testing.B) {
	for _, alg := range experiments.Algorithms {
		b.Run(alg, func(b *testing.B) {
			st, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			sch, err := experiments.NewScheduler(alg, st)
			if err != nil {
				b.Fatal(err)
			}
			s := sch.(sched.Proposer)
			vm := workload.VM{ID: 0, Lifetime: 1, Req: units.Vec(8, 16, 128)}
			shard := make(sched.RackMask, st.Cluster.NumRacks())
			for i := range shard {
				shard[i] = true
			}
			st.Cluster.Settle()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st.Cluster.Settle()
				p, ok := s.Propose(vm, shard)
				if !ok {
					b.Fatal("fresh cluster must yield a proposal")
				}
				a, err := st.CommitProposal(p)
				if err != nil {
					b.Fatal(err)
				}
				st.ReleaseVM(a)
			}
		})
	}
}
