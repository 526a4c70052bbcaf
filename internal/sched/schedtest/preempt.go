package schedtest

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"risa/internal/sched"
	"risa/internal/units"
	"risa/internal/workload"
)

// This file holds the preemption leg of the conformance suite. The
// contract under test is sched.PreemptScratch.Preempt: a
// higher-priority arrival that failed to place may displace a minimal,
// cheapest-first set of strictly-lower-tier victims; a failed attempt
// must restore every victim bit-for-bit; and the pooled records flowing
// through the transaction must balance exactly.

// preemptAttempt runs one preemption attempt for vm over the whole live
// set, mirroring what the simulator does after a successful preempt:
// victims leave the live set and their cleared records go back to the
// pool. It returns the arrival's assignment (nil when preemption
// refused), the victims' VM identities in post-sort (cheapest-first)
// order, and the updated live set.
func preemptAttempt(st *sched.State, s sched.Scheduler, ps *sched.PreemptScratch,
	vm workload.VM, live []*sched.Assignment) (*sched.Assignment, []workload.VM, []*sched.Assignment) {
	ps.Reset()
	for j, a := range live {
		ps.Add(a, j)
	}
	a, k := ps.Preempt(st, s, vm)
	if a == nil {
		return nil, nil, live
	}
	victims := make([]workload.VM, 0, k)
	idxs := make([]int, 0, k)
	for v := 0; v < k; v++ {
		victims = append(victims, live[ps.Ref(v)].VM)
		idxs = append(idxs, ps.Ref(v))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(idxs)))
	for _, j := range idxs {
		st.ReleaseVM(live[j])
		live = append(live[:j], live[j+1:]...)
	}
	return a, victims, append(live, a)
}

// tierOrderRespected: preemption only ever displaces strictly-lower-tier
// victims, chooses them as the cheapest-first prefix of the eligible set
// (cost = summed request, ties by VM id — checked against an independent
// oracle), refuses entirely for an arrival of the lowest tier, and a
// refused attempt leaves the datacenter untouched.
func tierOrderRespected(t *testing.T, mk Factory) {
	st := newState(t)
	s := mk(st)
	pristine := snapshot(st)
	rng := rand.New(rand.NewSource(51))
	var live []*sched.Assignment
	var ps sched.PreemptScratch

	// Saturate the cluster with tier-1 and tier-2 VMs.
	id := 0
	for drops := 0; drops < 20; id++ {
		vm := workload.VM{ID: id, Lifetime: 10, Tier: 1 + rng.Intn(2), Req: units.Vec(
			units.Amount(rng.Int63n(32)+1),
			units.Amount(rng.Int63n(64)+1),
			128)}
		if a, err := s.Schedule(vm); err == nil {
			live = append(live, a)
		} else {
			drops++
		}
	}

	// failingVM draws arrivals of the given tier until one fails to
	// place; successes stay live so the cluster remains saturated.
	failingVM := func(tier int) workload.VM {
		for {
			id++
			vm := workload.VM{ID: id, Lifetime: 10, Tier: tier, Req: units.Vec(
				units.Amount(rng.Int63n(32)+1),
				units.Amount(rng.Int63n(64)+1),
				128)}
			a, err := s.Schedule(vm)
			if err != nil {
				return vm
			}
			live = append(live, a)
		}
	}

	// oracle computes the eligible victim list for an arrival tier the
	// way the contract promises to order it: strictly lower tiers only,
	// cheapest summed request first, VM id breaking ties.
	oracle := func(tier int) []workload.VM {
		type cand struct {
			vm   workload.VM
			cost int64
		}
		var elig []cand
		for _, a := range live {
			if a.VM.Tier <= tier {
				continue
			}
			var cost int64
			for _, amt := range a.VM.Req {
				cost += int64(amt)
			}
			elig = append(elig, cand{a.VM, cost})
		}
		sort.Slice(elig, func(i, j int) bool {
			if elig[i].cost != elig[j].cost {
				return elig[i].cost < elig[j].cost
			}
			return elig[i].vm.ID < elig[j].vm.ID
		})
		out := make([]workload.VM, len(elig))
		for i, c := range elig {
			out[i] = c.vm
		}
		return out
	}

	// A lowest-tier arrival has nobody strictly below it: preemption must
	// refuse and disturb nothing.
	lowest := failingVM(workload.NumTiers - 1)
	before := snapshot(st)
	if a, _, _ := preemptAttempt(st, s, &ps, lowest, live); a != nil {
		t.Fatalf("tier-%d arrival preempted someone; no strictly lower tier exists", lowest.Tier)
	}
	if snapshot(st) != before {
		t.Fatal("refused preemption disturbed the state")
	}

	// Higher-tier arrivals: several rounds each of tier 1 (may only evict
	// tier 2) and tier 0 (may evict tiers 1 and 2), every victim set
	// checked against the oracle prefix.
	for round := 0; round < 6; round++ {
		tier := round % 2 // alternate tier 1, tier 0
		vm := failingVM(tier)
		want := oracle(vm.Tier)
		a, victims, nl := preemptAttempt(st, s, &ps, vm, live)
		live = nl
		if a == nil {
			continue // genuinely unplaceable even with every victim gone
		}
		t.Logf("round %d: tier-%d preempted %d victims", round, vm.Tier, len(victims))
		if len(victims) == 0 || len(victims) > len(want) {
			t.Fatalf("round %d: %d victims for %d eligible", round, len(victims), len(want))
		}
		for i, v := range victims {
			if v.Tier <= vm.Tier {
				t.Fatalf("round %d: tier-%d arrival evicted tier-%d VM %d", round, vm.Tier, v.Tier, v.ID)
			}
			if v.ID != want[i].ID {
				t.Fatalf("round %d: victim %d is VM %d, oracle says cheapest-first prefix has VM %d",
					round, i, v.ID, want[i].ID)
			}
		}
		checkAll(t, st)
	}

	for _, a := range live {
		s.Release(a)
	}
	if snapshot(st) != pristine {
		t.Fatal("full release did not restore the pristine state")
	}
	checkAll(t, st)
}

// preemptionNeverLeaks: the preemption transaction balances its pooled
// assignment records exactly. A scripted tiered churn — schedules,
// releases, successful preemptions (victim shells pooled like the
// simulator does) and impossible arrivals that force the full
// hold-release-restore walk over every victim — runs twice on the same
// State with a fresh scheduler each pass. The second, identical pass must
// be served entirely from the records pooled by the first: if any path
// lost a record (or handed one back twice), State.AllocatedAssignments
// grows and the test fails.
func preemptionNeverLeaks(t *testing.T, mk Factory) {
	st := newState(t)
	pristine := snapshot(st)
	var ps sched.PreemptScratch
	pass := func() {
		s := mk(st)
		rng := rand.New(rand.NewSource(77))
		var live []*sched.Assignment
		for i := 0; i < 500; i++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				j := rng.Intn(len(live))
				s.Release(live[j])
				live = append(live[:j], live[j+1:]...)
				continue
			}
			vm := workload.VM{ID: i, Lifetime: 10, Tier: rng.Intn(workload.NumTiers), Req: units.Vec(
				units.Amount(rng.Int63n(32)+1),
				units.Amount(rng.Int63n(64)+1),
				128)}
			if rng.Intn(40) == 0 {
				// Impossible arrival: Preempt releases every eligible
				// victim one by one, still fails, and must restore them
				// all bit-for-bit in reverse.
				vm.Req = units.Vec(1<<40, 16, 128)
			}
			a, err := s.Schedule(vm)
			if err == nil {
				live = append(live, a)
				continue
			}
			_, _, live = preemptAttempt(st, s, &ps, vm, live)
			if i%101 == 0 {
				checkAll(t, st)
			}
		}
		checkAll(t, st)
		for _, a := range live {
			s.Release(a)
		}
		if snapshot(st) != pristine {
			t.Fatal("full release did not restore the pristine state")
		}
	}
	pass()
	allocated := st.AllocatedAssignments()
	pass()
	if got := st.AllocatedAssignments(); got != allocated {
		t.Fatalf("second identical pass allocated fresh records: %d -> %d (a preemption path leaked assignment records instead of pooling them)", allocated, got)
	}
}

// preemptionHygiene is InterleavedHygiene over the preemption path: two
// instances alternate tiered decisions — schedule, release, and
// preempt-on-failure — and must match their isolated references exactly,
// victim sets included. This is what makes PreemptScratch safe to pool
// per driver: nothing a preemption attempt buffers (candidate lists,
// victim holds, sorter state) may leak into or depend on another
// instance's timing.
func preemptionHygiene(t *testing.T, mk Factory) {
	type run struct {
		s    sched.Scheduler
		st   *sched.State
		rng  *rand.Rand
		live []*sched.Assignment
		ps   sched.PreemptScratch
		sig  []string
	}
	newRun := func(seed int64) *run {
		st := newState(t)
		return &run{s: mk(st), st: st, rng: rand.New(rand.NewSource(seed))}
	}
	step := func(r *run, i int) {
		if len(r.live) > 0 && r.rng.Intn(4) == 0 {
			j := r.rng.Intn(len(r.live))
			r.s.Release(r.live[j])
			r.live = append(r.live[:j], r.live[j+1:]...)
			r.sig = append(r.sig, "release")
			return
		}
		vm := workload.VM{ID: i, Lifetime: 10, Tier: r.rng.Intn(workload.NumTiers), Req: units.Vec(
			units.Amount(r.rng.Int63n(32)+1),
			units.Amount(r.rng.Int63n(64)+1),
			128)}
		a, err := r.s.Schedule(vm)
		if err == nil {
			r.live = append(r.live, a)
			r.sig = append(r.sig, fmt.Sprint("t", vm.Tier, a.CPU.Box, a.RAM.Box, a.STO.Box))
			return
		}
		a, victims, nl := preemptAttempt(r.st, r.s, &r.ps, vm, r.live)
		r.live = nl
		if a == nil {
			r.sig = append(r.sig, "preempt-fail")
			return
		}
		ids := ""
		for _, v := range victims {
			ids += fmt.Sprint(" v", v.ID)
		}
		r.sig = append(r.sig, fmt.Sprint("preempt t", vm.Tier, a.CPU.Box, a.RAM.Box, a.STO.Box, ids))
	}
	const steps = 500
	ref1, ref2 := newRun(61), newRun(62)
	for i := 0; i < steps; i++ {
		step(ref1, i)
	}
	for i := 0; i < steps; i++ {
		step(ref2, i)
	}
	il1, il2 := newRun(61), newRun(62)
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
