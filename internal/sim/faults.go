package sim

import (
	"risa/internal/faults"
	"risa/internal/topology"
)

// applyFault applies one fault event's scope to the cluster through the
// per-box outage refcounts. Tiers overlap — a box can be inside a
// box-tier outage and a rack-tier outage at once — so a box is
// healthy only when no scope covering it is down; a plain boolean toggle
// would let the first repair un-fail a box another tier still holds down.
// Repairs that bring a box's count to zero re-seed both topology index
// tiers exactly (topology.SetBoxFailed), so post-repair scheduling is
// bit-identical to a never-failed cluster.
func (c *eventCore) applyFault(ev faults.Event) {
	boxes := c.st.Cluster.Rack(ev.Rack).Boxes()
	if ev.Tier == faults.BoxTier {
		boxes = boxes[ev.Box : ev.Box+1]
	}
	for _, b := range boxes {
		c.noteFault(b, ev.Repair)
	}
}

// noteFault adjusts one box's outage refcount and toggles the topology
// failure flag on the 0↔positive edges.
func (c *eventCore) noteFault(b *topology.Box, repair bool) {
	cl := c.st.Cluster
	i := b.Rack()*cl.Config().BoxesPerRack() + b.Index()
	if !repair {
		c.downCount[i]++
		cl.SetBoxFailed(b, true)
		return
	}
	if c.downCount[i] > 0 {
		c.downCount[i]--
	}
	if c.downCount[i] == 0 {
		cl.SetBoxFailed(b, false)
	}
}

// evictDisplaced scans the pending-event queue for departures whose
// assignments sit on failed hardware and re-places each through the
// scheduler's own policy, so a displaced VM lands where a fresh arrival
// would: its record goes back to the pool and the departure event is
// rebound to the record the scheduler returns, keeping its time. Both
// records come off the pool, so eviction stays off the allocator. An
// unrecoverable VM is unseated: to the retry queue, or lost.
//
// VMs whose departure is due at the failure instant itself (e.t == now)
// are left alone: they are leaving this tick anyway — faults sort
// before departures, so the pending departure is still visible here —
// and displacing (or killing) a VM at the end of its lifetime would
// only distort the displacement counters.
//
// The scan order is the queue's array order: deterministic for a given
// event history, which is all bit-identical replay needs.
func (c *eventCore) evictDisplaced() {
	for i := range c.h.s {
		e := &c.h.s[i]
		if e.kind != departure || e.a == nil || e.t <= c.now || !e.a.OnFailedHardware() {
			continue
		}
		vm := e.a.VM // read before the release clears the record
		c.obs.releasing(vm, e.a, true)
		start := now()
		c.st.ReleaseVM(e.a)
		e.a = nil
		moved, err := c.sch.Schedule(vm)
		c.obs.displaced(moved, err == nil, since(start))
		if err != nil {
			c.unseat(e, QueuedVMState{VM: vm, Displaced: true})
			continue
		}
		e.a = moved
	}
}
