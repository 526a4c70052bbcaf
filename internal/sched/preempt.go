package sched

import (
	"cmp"
	"fmt"
	"slices"

	"risa/internal/workload"
)

// PreemptScratch is the pooled victim-selection workspace of the
// preemption transaction (Preempt). One preemption attempt gathers
// candidate victims, filters and cost-sorts them, then releases a growing
// prefix while recording each victim's exact holdings so a failed attempt
// can restore every victim bit-for-bit. All of that state lives here in
// reusable buffers, so the preempt decision path — like Schedule itself —
// touches no allocator once the buffers reach their high-water size
// (TestAllocsScheduleOnePreempt pins this at 0 allocs/op).
//
// A PreemptScratch belongs to one driver (the simulator's event core), is
// valid only between Reset and the end of the attempt, and is not safe
// for concurrent use.
type PreemptScratch struct {
	victims []victim
	holds   []AssignmentState
}

// victim is one candidate: its record, the caller's ref for it and the
// capacity it would free (the sum of its request vector).
type victim struct {
	a    *Assignment
	ref  int
	cost int64
}

// Reset empties the scratch for a new preemption attempt, keeping every
// buffer's capacity.
func (p *PreemptScratch) Reset() {
	clear(p.victims)
	p.victims = p.victims[:0]
	p.holds = p.holds[:0]
}

// Add registers one candidate victim. ref is an opaque caller-side index
// (the simulator passes the victim's event-heap slot) handed back via Ref
// for the consumed prefix after a successful preemption.
func (p *PreemptScratch) Add(a *Assignment, ref int) {
	var cost int64
	for _, amt := range a.VM.Req {
		cost += int64(amt)
	}
	p.victims = append(p.victims, victim{a, ref, cost})
	if n := len(p.victims); n <= cap(p.holds) {
		p.holds = p.holds[:n] // reuse the slot's pooled buffers
	} else {
		p.holds = append(p.holds, AssignmentState{})
	}
}

// Ref returns the caller-side ref of candidate i (in post-sort order).
func (p *PreemptScratch) Ref(i int) int { return p.victims[i].ref }

// Preempt admits a high-priority arrival that failed both placement tiers
// by displacing a minimal set of strictly-lower-priority victims among the
// candidates Add gathered. It drops every candidate vm's tier may not
// evict, sorts the rest cheapest-first by freed capacity with VM id
// breaking ties — a total order, so victim selection is deterministic —
// and releases one victim at a time, retrying sch after each, until the
// arrival places.
//
// The greedy cheapest-first prefix is "minimal" in the cost order: no
// victim is evicted once the arrival fits, and each eviction was
// necessary at the time it was made (the scheduler had just failed
// without it). The transaction is built on ReleaseVMKeep: each
// victim's record stays with its owner, its exact
// holdings held in the scratch (Hold), so a failed attempt replays every
// victim bit-for-bit in reverse and returns (nil, 0) with the state
// untouched. Nothing else may mutate the state meanwhile (the simulator
// runs the transaction inside one event), so that replay cannot fail; an
// error there is a program bug and panics.
//
// On success it returns the arrival's assignment and the number k of
// victims consumed: the candidates Ref(0)..Ref(k-1) have been released,
// their cleared records still owned by the caller, and the caller decides
// their fate — the simulator re-queues them into the retry queue, where
// the tier-ordered discipline drains them once capacity returns.
func (p *PreemptScratch) Preempt(st *State, sch Scheduler, vm workload.VM) (*Assignment, int) {
	p.filter(vm.Tier)
	slices.SortFunc(p.victims, func(x, y victim) int {
		return cmp.Or(cmp.Compare(x.cost, y.cost), cmp.Compare(x.a.VM.ID, y.a.VM.ID))
	})
	for k, v := range p.victims {
		st.Hold(v.a, &p.holds[k])
		st.ReleaseVMKeep(v.a)
		if a, err := sch.Schedule(vm); err == nil {
			return a, k + 1
		}
	}
	for k := len(p.victims) - 1; k >= 0; k-- {
		if _, err := st.Replay(p.victims[k].a, &p.holds[k]); err != nil {
			panic(fmt.Sprintf("sched: preempt restore: %v", err))
		}
	}
	return nil, 0
}

// filter drops every candidate an arrival of the given tier may not
// preempt: victims of an equal or higher priority (tier <= the arrival's —
// tier 0 is highest, so only strictly larger tier numbers are
// preemptible) and victims on failed hardware. The tier rule is the
// TierOrderRespected conformance property enforced at the transaction
// itself, not just at call sites; the hardware rule is restore safety —
// State.Replay rejects failed boxes, and a victim on failed hardware frees
// no usable capacity anyway (its holdings are pending eviction, not
// supply).
func (p *PreemptScratch) filter(tier int) {
	p.victims = slices.DeleteFunc(p.victims, func(v victim) bool {
		return v.a.VM.Tier <= tier || v.a.OnFailedHardware()
	})
	p.holds = p.holds[:len(p.victims)]
}
