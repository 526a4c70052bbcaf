package sim

import (
	"bytes"
	"testing"

	"risa/internal/core"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/units"
	"risa/internal/workload"
)

// assignmentEligible mirrors sched.PreemptScratch.FilterEligible from the
// outside: a candidate is preemptible by an arrival of the given tier iff
// it is strictly lower priority, not stranded on failed hardware, and
// carries no flow over a failed link.
func assignmentEligible(a *sched.Assignment, tier int) bool {
	if a.VM.Tier <= tier || a.OnFailedHardware() {
		return false
	}
	for _, fl := range []*network.Flow{a.CPURAMFlow, a.RAMSTOFlow} {
		if fl == nil {
			continue
		}
		for _, l := range fl.Links() {
			if l.Failed() {
				return false
			}
		}
	}
	return true
}

// eligibleOracle recomputes the contract's victim order independently of
// PreemptScratch: eligible candidates sorted cheapest-first by summed
// request, VM id breaking ties. Returned as live-set indices.
func eligibleOracle(live []*sched.Assignment, tier int) []int {
	var elig []int
	cost := func(i int) int64 {
		var c int64
		for _, amt := range live[i].VM.Req {
			c += int64(amt)
		}
		return c
	}
	for j, a := range live {
		if assignmentEligible(a, tier) {
			elig = append(elig, j)
		}
	}
	// Insertion sort: the lists are small and the order must be exactly
	// (cost asc, id asc).
	for i := 1; i < len(elig); i++ {
		for j := i; j > 0; j-- {
			a, b := elig[j-1], elig[j]
			if cost(a) < cost(b) || (cost(a) == cost(b) && live[a].VM.ID < live[b].VM.ID) {
				break
			}
			elig[j-1], elig[j] = elig[j], elig[j-1]
		}
	}
	return elig
}

// restoreTwin rebuilds the pre-preemption world from a snapshot into a
// fresh instance and returns it plus its live set keyed by VM id.
func restoreTwin(t *testing.T, snap *StateSnapshot) (*fuzzInstance, map[int]*sched.Assignment) {
	t.Helper()
	twin := newFuzzInstance(t)
	live, err := RestoreState(twin.st, twin.sch, snap)
	if err != nil {
		t.Fatalf("oracle restore: %v", err)
	}
	twin.live = live
	byID := make(map[int]*sched.Assignment, len(live))
	for _, a := range live {
		byID[a.VM.ID] = a
	}
	return twin, byID
}

// preemptWithOracle runs one preemption attempt on the instance and
// brute-forces its two contractual claims on snapshot-restored twins:
//
//   - victim selection: the consumed victims are exactly the
//     cheapest-first prefix of the independently computed eligible list,
//     all of them strictly lower tier than the arrival;
//   - minimality: releasing only the first k-1 oracle victims on a
//     restored twin must leave the arrival unplaceable — every eviction
//     in the chain was necessary;
//   - refusal: when Preempt returns nil, releasing every eligible victim
//     on a restored twin must still leave the arrival unplaceable — the
//     refusal was genuine, not an early bailout.
func preemptWithOracle(t *testing.T, in *fuzzInstance, scr *sched.Scratch, vm workload.VM, opIdx int) {
	t.Helper()
	snap, err := CaptureState(in.st, in.sch, in.live)
	if err != nil {
		t.Fatalf("op %d: oracle capture: %v", opIdx, err)
	}
	elig := eligibleOracle(in.live, vm.Tier)

	ps := scr.Preemption()
	ps.Reset()
	for j, a := range in.live {
		ps.Add(a, j)
	}
	a, k := core.Preempt(in.st, in.sch, ps, vm)

	if a == nil {
		twin, byID := restoreTwin(t, snap)
		for _, j := range elig {
			twin.sch.Release(byID[in.live[j].VM.ID])
		}
		if _, err := twin.sch.Schedule(vm); err == nil {
			t.Fatalf("op %d: preemption refused VM %d, but releasing all %d eligible victims admits it",
				opIdx, vm.ID, len(elig))
		}
		return
	}

	if k == 0 || k > len(elig) {
		t.Fatalf("op %d: preemption consumed %d victims with %d eligible", opIdx, k, len(elig))
	}
	for v := 0; v < k; v++ {
		victim := ps.Victim(v).VM
		if victim.Tier <= vm.Tier {
			t.Fatalf("op %d: tier-%d arrival evicted tier-%d VM %d", opIdx, vm.Tier, victim.Tier, victim.ID)
		}
		if want := in.live[elig[v]].VM.ID; victim.ID != want {
			t.Fatalf("op %d: victim %d is VM %d, oracle prefix has VM %d", opIdx, v, victim.ID, want)
		}
	}
	twin, byID := restoreTwin(t, snap)
	for v := 0; v < k-1; v++ {
		twin.sch.Release(byID[in.live[elig[v]].VM.ID])
	}
	if _, err := twin.sch.Schedule(vm); err == nil {
		t.Fatalf("op %d: chain of %d victims is not minimal: %d suffice for VM %d", opIdx, k, k-1, vm.ID)
	}

	// Simulator bookkeeping: victims leave the live set high-index-first
	// (ps.Ref holds live indices), shells go back to the pool, the
	// preemptor joins.
	idxs := make([]int, 0, k)
	for v := 0; v < k; v++ {
		idxs = append(idxs, ps.Ref(v))
	}
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && idxs[j-1] < idxs[j]; j-- {
			idxs[j-1], idxs[j] = idxs[j], idxs[j-1]
		}
	}
	for _, j := range idxs {
		in.st.ReleaseVM(in.live[j])
		in.live = append(in.live[:j], in.live[j+1:]...)
	}
	in.live = append(in.live, a)
}

// FuzzPreemptionChain drives one instance through an arbitrary tiered
// alloc/release/fail/heal/link/displace/hold-replay script in which every
// failed schedule becomes a preemption attempt, and checks each attempt
// against a brute-force oracle on a snapshot-restored twin: victims are
// exactly the cheapest-first eligible prefix, the chain is minimal (k-1
// victims never suffice), refusals are genuine, and the datacenter holds
// its invariants after every op.
func FuzzPreemptionChain(f *testing.F) {
	// One op is three bytes: opcode, selector, amount. The long seeds
	// saturate the 3-rack instance with low-tier VMs, then land
	// high-tier arrivals on the full cluster to force preemption chains.
	// Preemption VMs are up to four times the base fuzz shape (the
	// oracle restores a twin of the whole live set per attempt, so a
	// smaller saturated population keeps executions fast): the 3-rack
	// instance holds 48 VMs of the largest shape (64/64/32), and 70 fill
	// ops guarantee a saturated cluster.
	fill := bytes.Repeat([]byte{0, 2, 255}, 70) // tier-2 max-size allocs
	f.Add(append(append([]byte{}, fill...), 0, 0, 255, 0, 0, 127, 0, 1, 255))
	f.Add(append(append([]byte{}, fill...), 2, 3, 0, 0, 0, 255, 3, 3, 0, 0, 1, 9))
	f.Add(append(append([]byte{}, bytes.Repeat([]byte{0, 1, 255}, 75)...), 0, 0, 3, 1, 4, 0, 0, 0, 200))
	// Multi-victim chain: saturate, free one big slot, refill it with
	// three small tier-2 VMs (the cheapest-first order picks those), then
	// land a big tier-0 arrival that needs several of them evicted.
	f.Add(append(append([]byte{}, fill...), 1, 0, 0, 0, 2, 20, 0, 2, 20, 0, 2, 20, 0, 0, 255))
	f.Add([]byte{0, 2, 10, 0, 1, 200, 1, 0, 0, 0, 0, 30}) // light churn, mixed tiers
	f.Add([]byte{0, 5, 31, 5, 0, 0, 2, 4, 0, 0, 0, 7})    // displace + fail around tiered allocs
	f.Fuzz(func(t *testing.T, ops []byte) {
		in := newFuzzInstance(t)
		var scr sched.Scratch
		vmID := 0
		nOps := len(ops) / 3
		// Every failed schedule costs two snapshot-restored oracle twins,
		// so unbounded mutated inputs would make executions arbitrarily
		// slow; 512 ops is plenty to saturate and then churn the cluster.
		if nOps > 512 {
			nOps = 512
		}
		for i := 0; i < nOps; i++ {
			op, sel, amt := ops[i*3], ops[i*3+1], ops[i*3+2]
			if op%fuzzOps == 0 {
				vm := workload.VM{
					ID: vmID, Lifetime: 1000, Tier: int(sel) % workload.NumTiers,
					Req: units.Vec(1+units.Amount(amt)%64, 1+units.Amount(amt>>2)%64, 32),
				}
				vmID++
				if a, err := in.sch.Schedule(vm); err == nil {
					in.live = append(in.live, a)
				} else {
					preemptWithOracle(t, in, &scr, vm, i)
				}
			} else {
				in.step(t, op, sel, amt, vmID)
			}
			in.check(t, i)
		}
	})
}
