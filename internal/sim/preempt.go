package sim

import (
	"errors"

	"risa/internal/sched"
	"risa/internal/workload"
)

// errPreemptFailed reports that no admissible victim set could place the
// arrival; a package-level sentinel so failed attempts stay off the
// allocator.
var errPreemptFailed = errors.New("sim: preemption found no admissible victim set")

// tryPreempt attempts to admit a VM that just failed placement by
// displacing strictly-lower-tier resident VMs. Candidates are gathered
// from the event queue — every pending departure with a live assignment
// is a resident VM; the queue's array order is deterministic for a given
// event history, and Preempt's total cost order makes the victim set
// independent of it anyway. The transaction picks a cheapest-first
// minimal prefix or restores everything (see sched.PreemptScratch.Preempt).
//
// On success the consumed victims are unseated exactly like lost
// displacements and re-enter the retry queue as preempted entries,
// draining behind every equal-or-higher-priority entry under the queue's
// tier order. The whole attempt is reported as one (indirect) decision.
func (c *eventCore) tryPreempt(vm workload.VM) (*sched.Assignment, error) {
	ps := &c.preempt
	ps.Reset()
	start := now()
	for i := range c.h.s {
		e := &c.h.s[i]
		if e.kind != departure || e.a == nil || e.t <= c.now || e.a.VM.Tier <= vm.Tier {
			continue
		}
		ps.Add(e.a, i)
	}
	a, consumed := ps.Preempt(c.st, c.sch, vm)
	c.obs.decided(vm, since(start), false)
	if a == nil {
		return nil, errPreemptFailed
	}
	for k := 0; k < consumed; k++ {
		e := &c.h.s[ps.Ref(k)]
		c.unseat(e, QueuedVMState{VM: e.a.VM, Preempted: true})
	}
	return a, nil
}
