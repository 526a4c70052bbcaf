package sim

import (
	"time"

	"risa/internal/core"
	"risa/internal/faults"
	"risa/internal/topology"
)

// applyFault applies one fault event's scope to the cluster through the
// per-box outage refcounts. Tiers overlap — a box can be inside a
// box-tier outage and a rack- or pod-tier outage at once — so a box is
// healthy only when no scope covering it is down; a plain boolean toggle
// would let the first repair un-fail a box another tier still holds down.
// Repairs that bring a box's count to zero re-seed both topology index
// tiers exactly (topology.SetBoxFailed), so post-repair scheduling is
// bit-identical to a never-failed cluster.
func (c *eventCore) applyFault(ev faults.Event) {
	cl := c.st.Cluster
	lo, hi := ev.Rack, ev.Rack+1
	if ev.Tier == faults.PodTier {
		lo, hi = c.f.Plan.PodRacks(ev.Pod, cl.NumRacks())
	}
	for ri := lo; ri < hi; ri++ {
		boxes := cl.Rack(ri).Boxes()
		if ev.Tier == faults.BoxTier {
			boxes = boxes[ev.Box : ev.Box+1]
		}
		for _, b := range boxes {
			c.noteFault(b, ev.Repair)
		}
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
// assignments sit on failed hardware and re-places each through
// core.Displace. A recovered VM keeps its departure event — the record
// the event references now holds the new placement, and the pooled
// record of the transaction recycles, so eviction stays off the
// allocator. An unrecoverable VM is unseated: to the retry queue, or
// lost.
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
		c.obs.releasing(e.a.VM, e.a, true)
		start := time.Since(epoch)
		recovered := core.Displace(c.st, c.sch, e.a)
		c.obs.displaced(e.a, recovered, time.Since(epoch)-start)
		if !recovered {
			c.unseat(e, QueuedVMState{VM: e.a.VM, Displaced: true})
		}
	}
}
