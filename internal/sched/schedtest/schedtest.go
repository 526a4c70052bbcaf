// Package schedtest is a reusable conformance suite for sched.Scheduler
// implementations: every algorithm in the repository (and any future one)
// must satisfy the same behavioral contract — failed schedules leave the
// datacenter untouched, releases restore exactly what was taken,
// scheduling is deterministic, and resource accounting is conserved under
// churn. The baseline and core packages each run this suite over their
// schedulers. ZeroAllocs, the judge of the hot path's zero-allocation
// contract, lives here too so every package's tests share one.
package schedtest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"risa/internal/core"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// Factory builds a scheduler bound to the given state.
type Factory func(st *sched.State) sched.Scheduler

// Conformance runs the full contract suite against the factory.
func Conformance(t *testing.T, name string, mk Factory) {
	t.Run(name+"/ScheduleRelease", func(t *testing.T) { scheduleRelease(t, mk) })
	t.Run(name+"/FailureLeavesState", func(t *testing.T) { failureLeavesState(t, mk) })
	t.Run(name+"/Deterministic", func(t *testing.T) { deterministic(t, mk) })
	t.Run(name+"/ChurnConservation", func(t *testing.T) { churnConservation(t, mk) })
	t.Run(name+"/RespectsBoxFailure", func(t *testing.T) { respectsBoxFailure(t, mk) })
	t.Run(name+"/InterleavedHygiene", func(t *testing.T) { interleavedHygiene(t, mk) })
	t.Run(name+"/FailedBoxNeverPlaced", func(t *testing.T) { failedBoxNeverPlaced(t, mk) })
	t.Run(name+"/HealedBoxReusable", func(t *testing.T) { healedBoxReusable(t, mk) })
	t.Run(name+"/FaultInterleavedHygiene", func(t *testing.T) { faultInterleavedHygiene(t, mk) })
	t.Run(name+"/SnapshotHygiene", func(t *testing.T) { snapshotHygiene(t, mk) })
	t.Run(name+"/TierOrderRespected", func(t *testing.T) { tierOrderRespected(t, mk) })
	t.Run(name+"/PreemptionNeverLeaks", func(t *testing.T) { preemptionNeverLeaks(t, mk) })
	t.Run(name+"/PreemptionHygiene", func(t *testing.T) { preemptionHygiene(t, mk) })
}

// ZeroAllocs calls round warm times, so pools, slabs and scratch buffers
// reach their high-water marks, and then fails the test unless 200 further
// rounds average below one allocation — growth that amortises passes, an
// allocation per round does not.
func ZeroAllocs(t *testing.T, warm int, round func()) {
	t.Helper()
	for i := 0; i < warm; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("%.0f allocs/op at steady state, want 0", avg)
	}
}

func newState(t *testing.T) *sched.State {
	t.Helper()
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func snapshot(st *sched.State) [5]int64 {
	return [5]int64{
		int64(st.Cluster.TotalFree(units.CPU)),
		int64(st.Cluster.TotalFree(units.RAM)),
		int64(st.Cluster.TotalFree(units.Storage)),
		int64(st.Fabric.IntraRackFree()),
		int64(st.Fabric.InterRackFree()),
	}
}

func checkAll(t *testing.T, st *sched.State) {
	t.Helper()
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Fatalf("cluster invariants: %v", err)
	}
	if err := st.Fabric.CheckInvariants(); err != nil {
		t.Fatalf("fabric invariants: %v", err)
	}
}

// scheduleRelease: a successful schedule consumes resources; releasing it
// restores the exact prior state.
func scheduleRelease(t *testing.T, mk Factory) {
	st := newState(t)
	s := mk(st)
	before := snapshot(st)
	a, err := s.Schedule(workload.VM{ID: 1, Lifetime: 10, Req: units.Vec(8, 16, 128)})
	if err != nil {
		t.Fatalf("fresh cluster must accept a typical VM: %v", err)
	}
	if snapshot(st) == before {
		t.Fatal("schedule consumed nothing")
	}
	s.Release(a)
	if snapshot(st) != before {
		t.Fatal("release did not restore the prior state")
	}
	checkAll(t, st)
}

// failureLeavesState: an impossible request must not change anything.
func failureLeavesState(t *testing.T, mk Factory) {
	st := newState(t)
	s := mk(st)
	before := snapshot(st)
	if _, err := s.Schedule(workload.VM{ID: 1, Lifetime: 10, Req: units.Vec(1<<40, 16, 128)}); err == nil {
		t.Fatal("impossible request must fail")
	}
	if snapshot(st) != before {
		t.Fatal("failed schedule disturbed the state")
	}
	checkAll(t, st)
}

// deterministic: two fresh schedulers on identical states produce
// identical placements for an identical request stream.
func deterministic(t *testing.T, mk Factory) {
	place := func() []string {
		st := newState(t)
		s := mk(st)
		rng := rand.New(rand.NewSource(42))
		var out []string
		for i := 0; i < 200; i++ {
			vm := workload.VM{ID: i, Lifetime: 10, Req: units.Vec(
				units.Amount(rng.Int63n(32)+1),
				units.Amount(rng.Int63n(32)+1),
				128)}
			a, err := s.Schedule(vm)
			if err != nil {
				out = append(out, "drop")
				continue
			}
			out = append(out, a.CPU.Box.String()+a.RAM.Box.String()+a.STO.Box.String())
		}
		return out
	}
	a, b := place(), place()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement %d differs between identical runs: %s vs %s", i, a[i], b[i])
		}
	}
}

// churnConservation: random schedule/release interleavings preserve all
// invariants, and releasing everything restores the pristine state.
func churnConservation(t *testing.T, mk Factory) {
	st := newState(t)
	s := mk(st)
	before := snapshot(st)
	rng := rand.New(rand.NewSource(7))
	var live []*sched.Assignment
	for step := 0; step < 600; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			s.Release(live[i])
			live = append(live[:i], live[i+1:]...)
		} else {
			vm := workload.VM{ID: step, Lifetime: 10, Req: units.Vec(
				units.Amount(rng.Int63n(32)+1),
				units.Amount(rng.Int63n(64)+1),
				128)}
			if a, err := s.Schedule(vm); err == nil {
				live = append(live, a)
			}
		}
	}
	checkAll(t, st)
	for _, a := range live {
		s.Release(a)
	}
	if snapshot(st) != before {
		t.Fatal("full release did not restore the pristine state")
	}
	checkAll(t, st)
}

// interleavedHygiene: two scheduler instances driven decision-by-decision
// in alternation on independent datacenters must behave exactly like two
// isolated runs. This is the property test behind the scratch-buffer and
// pool reuse discipline (DESIGN.md §9): every instance owns its Scratch
// and every State its pools, so nothing an instance buffers between
// decisions may leak into — or depend on — another instance's timing. A
// leak (say, a shared cursor table or a placement record recycled across
// states) shows up as a placement diverging from the isolated reference.
func interleavedHygiene(t *testing.T, mk Factory) {
	type run struct {
		s    sched.Scheduler
		st   *sched.State
		rng  *rand.Rand
		live []*sched.Assignment
		sig  []string
	}
	newRun := func(seed int64) *run {
		st := newState(t)
		return &run{s: mk(st), st: st, rng: rand.New(rand.NewSource(seed))}
	}
	// step performs one scripted decision: a release of a random live VM
	// one time in three, a schedule otherwise, appending a signature of
	// what happened. The script depends only on the run's own seed.
	step := func(r *run, i int) {
		if len(r.live) > 0 && r.rng.Intn(3) == 0 {
			j := r.rng.Intn(len(r.live))
			r.s.Release(r.live[j])
			r.live = append(r.live[:j], r.live[j+1:]...)
			r.sig = append(r.sig, "release")
			return
		}
		vm := workload.VM{ID: i, Lifetime: 10, Req: units.Vec(
			units.Amount(r.rng.Int63n(32)+1),
			units.Amount(r.rng.Int63n(64)+1),
			128)}
		a, err := r.s.Schedule(vm)
		if err != nil {
			r.sig = append(r.sig, "drop")
			return
		}
		r.live = append(r.live, a)
		r.sig = append(r.sig, fmt.Sprint(a.CPU.Box, a.RAM.Box, a.STO.Box))
	}
	const steps = 400
	// Isolated references: each script runs start to finish on its own.
	ref1, ref2 := newRun(11), newRun(22)
	for i := 0; i < steps; i++ {
		step(ref1, i)
	}
	for i := 0; i < steps; i++ {
		step(ref2, i)
	}
	// Interleaved: the same two scripts, alternating one decision at a
	// time, so every decision of one instance runs against the other's
	// freshly used buffers.
	il1, il2 := newRun(11), newRun(22)
	for i := 0; i < steps; i++ {
		step(il1, i)
		step(il2, i)
	}
	for i := 0; i < steps; i++ {
		if il1.sig[i] != ref1.sig[i] {
			t.Fatalf("run 1 step %d: interleaved %q != isolated %q", i, il1.sig[i], ref1.sig[i])
		}
		if il2.sig[i] != ref2.sig[i] {
			t.Fatalf("run 2 step %d: interleaved %q != isolated %q", i, il2.sig[i], ref2.sig[i])
		}
	}
	checkAll(t, il1.st)
	checkAll(t, il2.st)
}

// failedBoxNeverPlaced: under a churn of random failures and repairs, no
// scheduler ever places a component onto a box that is failed at
// decision time — including boxes it used moments earlier, whose warm
// cursors and cached candidates are the adversarial case ("mid-decision"
// state: whatever an algorithm buffered across decisions must not leak a
// now-failed box into a placement).
func failedBoxNeverPlaced(t *testing.T, mk Factory) {
	st := newState(t)
	before := snapshot(st)
	s := mk(st)
	rng := rand.New(rand.NewSource(13))
	boxes := st.Cluster.Boxes()
	var live []*sched.Assignment
	for step := 0; step < 800; step++ {
		switch rng.Intn(8) {
		case 0: // fail a random box
			st.Cluster.SetBoxFailed(boxes[rng.Intn(len(boxes))], true)
		case 1: // heal a random box
			st.Cluster.SetBoxFailed(boxes[rng.Intn(len(boxes))], false)
		case 2: // release a random live VM (failed boxes included)
			if len(live) > 0 {
				i := rng.Intn(len(live))
				s.Release(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		default:
			vm := workload.VM{ID: step, Lifetime: 10, Req: units.Vec(
				units.Amount(rng.Int63n(32)+1),
				units.Amount(rng.Int63n(64)+1),
				128)}
			a, err := s.Schedule(vm)
			if err != nil {
				continue
			}
			for _, p := range []topology.Placement{a.CPU, a.RAM, a.STO} {
				if !p.IsZero() && p.Box.Failed() {
					t.Fatalf("step %d: VM %d placed onto failed %v", step, vm.ID, p.Box)
				}
			}
			live = append(live, a)
			// Adversarial: sometimes kill the box the scheduler just
			// used, so its freshest cursor points at failed hardware.
			if rng.Intn(4) == 0 {
				st.Cluster.SetBoxFailed(a.CPU.Box, true)
			}
		}
		if step%97 == 0 {
			checkAll(t, st)
		}
	}
	for _, a := range live {
		s.Release(a)
	}
	for _, b := range boxes {
		st.Cluster.SetBoxFailed(b, false)
	}
	if snapshot(st) != before {
		t.Fatal("release + repair did not restore the pristine state")
	}
	checkAll(t, st)
}

// healedBoxReusable: a repaired box is indistinguishable from one that
// never failed. A state that lived through an outage — placements made
// before the failure and released into it, churn routed around the hole,
// everything released, then repaired — must serve a fresh arrival
// sequence bit-identically to a never-failed state: capacity, index
// tiers and fabric fully restored.
func healedBoxReusable(t *testing.T, mk Factory) {
	signature := func(exercise bool) []string {
		st := newState(t)
		if exercise {
			s := mk(st)
			rng := rand.New(rand.NewSource(99))
			place := func(n int) []*sched.Assignment {
				var live []*sched.Assignment
				for i := 0; i < n; i++ {
					vm := workload.VM{ID: i, Lifetime: 10, Req: units.Vec(
						units.Amount(rng.Int63n(32)+1),
						units.Amount(rng.Int63n(64)+1),
						128)}
					if a, err := s.Schedule(vm); err == nil {
						live = append(live, a)
					}
				}
				return live
			}
			preOutage := place(60)
			for _, ri := range []int{0, 1} {
				for _, b := range st.Cluster.Rack(ri).Boxes() {
					st.Cluster.SetBoxFailed(b, true)
				}
			}
			// Departures into the outage: the freed capacity stays hidden
			// until the repair.
			for _, a := range preOutage {
				s.Release(a)
			}
			// Churn around the hole, fully released again.
			for _, a := range place(40) {
				s.Release(a)
			}
			for _, ri := range []int{0, 1} {
				for _, b := range st.Cluster.Rack(ri).Boxes() {
					st.Cluster.SetBoxFailed(b, false)
				}
			}
		}
		// A fresh scheduler instance on the (healed or never-failed)
		// state: placements must not depend on the state's history.
		s := mk(st)
		rng := rand.New(rand.NewSource(7))
		var sig []string
		for i := 0; i < 150; i++ {
			vm := workload.VM{ID: 1000 + i, Lifetime: 10, Req: units.Vec(
				units.Amount(rng.Int63n(32)+1),
				units.Amount(rng.Int63n(64)+1),
				128)}
			a, err := s.Schedule(vm)
			if err != nil {
				sig = append(sig, "drop")
				continue
			}
			sig = append(sig, fmt.Sprint(a.CPU.Box, a.RAM.Box, a.STO.Box))
		}
		checkAll(t, st)
		return sig
	}
	healed, never := signature(true), signature(false)
	for i := range never {
		if healed[i] != never[i] {
			t.Fatalf("fresh arrival %d: healed state placed %q, never-failed %q", i, healed[i], never[i])
		}
	}
}

// faultInterleavedHygiene is InterleavedHygiene over the fault paths:
// the per-decision scripts also fail and heal boxes and displace VMs off
// failed hardware (core.Displace — the eviction transaction the
// simulator uses), and two instances alternating decision-by-decision
// must still match their isolated references exactly.
func faultInterleavedHygiene(t *testing.T, mk Factory) {
	type run struct {
		s    sched.Scheduler
		st   *sched.State
		rng  *rand.Rand
		live []*sched.Assignment
		sig  []string
	}
	newRun := func(seed int64) *run {
		st := newState(t)
		return &run{s: mk(st), st: st, rng: rand.New(rand.NewSource(seed))}
	}
	step := func(r *run, i int) {
		boxes := r.st.Cluster.Boxes()
		switch r.rng.Intn(8) {
		case 0:
			b := boxes[r.rng.Intn(len(boxes))]
			r.st.Cluster.SetBoxFailed(b, true)
			r.sig = append(r.sig, "fail "+b.String())
			return
		case 1:
			b := boxes[r.rng.Intn(len(boxes))]
			r.st.Cluster.SetBoxFailed(b, false)
			r.sig = append(r.sig, "heal "+b.String())
			return
		case 2: // displace the first live VM stranded on failed hardware
			for j, a := range r.live {
				if !a.OnFailedHardware() {
					continue
				}
				if core.Displace(r.st, r.s, a) {
					r.sig = append(r.sig, fmt.Sprint("displaced", a.CPU.Box, a.RAM.Box, a.STO.Box))
				} else {
					// Lost: the record is emptied; pool it and drop it
					// from the live set like the simulator does.
					r.st.ReleaseVM(a)
					r.live = append(r.live[:j], r.live[j+1:]...)
					r.sig = append(r.sig, "displace-lost")
				}
				return
			}
			r.sig = append(r.sig, "nothing-stranded")
			return
		case 3:
			if len(r.live) > 0 {
				j := r.rng.Intn(len(r.live))
				r.s.Release(r.live[j])
				r.live = append(r.live[:j], r.live[j+1:]...)
				r.sig = append(r.sig, "release")
				return
			}
			fallthrough
		default:
			vm := workload.VM{ID: i, Lifetime: 10, Req: units.Vec(
				units.Amount(r.rng.Int63n(32)+1),
				units.Amount(r.rng.Int63n(64)+1),
				128)}
			a, err := r.s.Schedule(vm)
			if err != nil {
				r.sig = append(r.sig, "drop")
				return
			}
			r.live = append(r.live, a)
			r.sig = append(r.sig, fmt.Sprint(a.CPU.Box, a.RAM.Box, a.STO.Box))
		}
	}
	const steps = 400
	ref1, ref2 := newRun(31), newRun(32)
	for i := 0; i < steps; i++ {
		step(ref1, i)
	}
	for i := 0; i < steps; i++ {
		step(ref2, i)
	}
	il1, il2 := newRun(31), newRun(32)
	for i := 0; i < steps; i++ {
		step(il1, i)
		step(il2, i)
	}
	for i := 0; i < steps; i++ {
		if il1.sig[i] != ref1.sig[i] {
			t.Fatalf("run 1 step %d: interleaved %q != isolated %q", i, il1.sig[i], ref1.sig[i])
		}
		if il2.sig[i] != ref2.sig[i] {
			t.Fatalf("run 2 step %d: interleaved %q != isolated %q", i, il2.sig[i], ref2.sig[i])
		}
	}
	checkAll(t, il1.st)
	checkAll(t, il2.st)
}

// snapshotHygiene extends the interleaved-hygiene family to the snapshot
// plane: interleaving sim.CaptureState (and restores into third
// instances) into the A/B decision script must not perturb either
// instance. Capture is read-only and restore targets a separate pristine
// state, so the scripted signatures must equal the isolated,
// never-snapshotted references exactly — and every restored twin must
// itself pass invariants and re-capture to an identical snapshot. The
// script is the fault-interleaved one (fail/heal/displace included), so
// captures also happen with failed hardware and stranded VMs in flight.
func snapshotHygiene(t *testing.T, mk Factory) {
	type run struct {
		s    sched.Scheduler
		st   *sched.State
		rng  *rand.Rand
		live []*sched.Assignment
		sig  []string
	}
	newRun := func(seed int64) *run {
		st := newState(t)
		return &run{s: mk(st), st: st, rng: rand.New(rand.NewSource(seed))}
	}
	step := func(r *run, i int) {
		boxes := r.st.Cluster.Boxes()
		switch r.rng.Intn(8) {
		case 0:
			b := boxes[r.rng.Intn(len(boxes))]
			r.st.Cluster.SetBoxFailed(b, true)
			r.sig = append(r.sig, "fail "+b.String())
			return
		case 1:
			b := boxes[r.rng.Intn(len(boxes))]
			r.st.Cluster.SetBoxFailed(b, false)
			r.sig = append(r.sig, "heal "+b.String())
			return
		case 2:
			for j, a := range r.live {
				if !a.OnFailedHardware() {
					continue
				}
				if core.Displace(r.st, r.s, a) {
					r.sig = append(r.sig, fmt.Sprint("displaced", a.CPU.Box, a.RAM.Box, a.STO.Box))
				} else {
					r.st.ReleaseVM(a)
					r.live = append(r.live[:j], r.live[j+1:]...)
					r.sig = append(r.sig, "displace-lost")
				}
				return
			}
			r.sig = append(r.sig, "nothing-stranded")
			return
		case 3:
			if len(r.live) > 0 {
				j := r.rng.Intn(len(r.live))
				r.s.Release(r.live[j])
				r.live = append(r.live[:j], r.live[j+1:]...)
				r.sig = append(r.sig, "release")
				return
			}
			fallthrough
		default:
			vm := workload.VM{ID: i, Lifetime: 10, Req: units.Vec(
				units.Amount(r.rng.Int63n(32)+1),
				units.Amount(r.rng.Int63n(64)+1),
				128)}
			a, err := r.s.Schedule(vm)
			if err != nil {
				r.sig = append(r.sig, "drop")
				return
			}
			r.live = append(r.live, a)
			r.sig = append(r.sig, fmt.Sprint(a.CPU.Box, a.RAM.Box, a.STO.Box))
		}
	}
	// snapshotAndRestore captures the run's state, restores it into a
	// fresh third instance and cross-checks the roundtrip. Everything it
	// does must be invisible to the run itself.
	snapshotAndRestore := func(r *run, i int) {
		snap, err := sim.CaptureState(r.st, r.s, r.live)
		if err != nil {
			t.Fatalf("step %d: capture: %v", i, err)
		}
		st2 := newState(t)
		s2 := mk(st2)
		live2, err := sim.RestoreState(st2, s2, snap)
		if err != nil {
			t.Fatalf("step %d: restore: %v", i, err)
		}
		checkAll(t, st2)
		snap2, err := sim.CaptureState(st2, s2, live2)
		if err != nil {
			t.Fatalf("step %d: re-capture: %v", i, err)
		}
		if !reflect.DeepEqual(snap, snap2) {
			t.Fatalf("step %d: restored state re-captures differently", i)
		}
	}
	const steps = 400
	ref1, ref2 := newRun(41), newRun(42)
	for i := 0; i < steps; i++ {
		step(ref1, i)
	}
	for i := 0; i < steps; i++ {
		step(ref2, i)
	}
	il1, il2 := newRun(41), newRun(42)
	for i := 0; i < steps; i++ {
		step(il1, i)
		step(il2, i)
		if i%50 == 25 {
			snapshotAndRestore(il1, i)
			snapshotAndRestore(il2, i)
		}
	}
	for i := 0; i < steps; i++ {
		if il1.sig[i] != ref1.sig[i] {
			t.Fatalf("run 1 step %d: snapshot-interleaved %q != isolated %q", i, il1.sig[i], ref1.sig[i])
		}
		if il2.sig[i] != ref2.sig[i] {
			t.Fatalf("run 2 step %d: snapshot-interleaved %q != isolated %q", i, il2.sig[i], ref2.sig[i])
		}
	}
	checkAll(t, il1.st)
	checkAll(t, il2.st)
}

// respectsBoxFailure: no scheduler may place anything on a failed box.
func respectsBoxFailure(t *testing.T, mk Factory) {
	st := newState(t)
	s := mk(st)
	// Fail all of rack 0 and rack 1.
	for _, ri := range []int{0, 1} {
		for _, b := range st.Cluster.Rack(ri).Boxes() {
			st.Cluster.SetBoxFailed(b, true)
		}
	}
	for i := 0; i < 50; i++ {
		a, err := s.Schedule(workload.VM{ID: i, Lifetime: 10, Req: units.Vec(8, 16, 128)})
		if err != nil {
			continue
		}
		for _, p := range []topology.Placement{a.CPU, a.RAM, a.STO} {
			if p.Box.Rack() < 2 {
				t.Fatalf("VM %d placed on failed rack %d", i, p.Box.Rack())
			}
		}
	}
	checkAll(t, st)
}
