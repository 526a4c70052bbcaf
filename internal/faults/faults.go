// Package faults models hardware failure and repair for the simulator: a
// time-ordered Plan of fail/repair events at box or rack granularity,
// plus a seeded stochastic generator that draws each box's outages from
// MTBF/MTTR exponentials (see gen.go).
//
// A Plan is pure data — it names hardware by index and says nothing about
// what failure means. The simulator interprets it: each event toggles
// topology.Cluster.SetBoxFailed over the event's scope, and the optional
// eviction policy decides what happens to VMs resident on failed hardware
// (sim.Faults.Evict). DESIGN.md §10 documents the full fault model.
package faults

import (
	"fmt"
	"sort"
)

// Tier is the blast radius of one fault event.
type Tier int

const (
	// BoxTier fails or repairs a single box.
	BoxTier Tier = iota
	// RackTier fails or repairs every box of one rack at once.
	RackTier
)

// String names the tier for logs and errors.
func (t Tier) String() string {
	switch t {
	case BoxTier:
		return "box"
	case RackTier:
		return "rack"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Event is one timed fault or repair. Only the index fields of the
// event's tier are meaningful: Rack and Box for BoxTier, Rack for
// RackTier.
type Event struct {
	// T is the simulated time the event fires.
	T int64
	// Repair distinguishes a repair (true) from a failure (false).
	Repair bool
	// Tier is the event's blast radius.
	Tier Tier
	// Rack is the rack index (BoxTier and RackTier).
	Rack int
	// Box is the box index within the rack, counted across all resource
	// kinds like topology.Box.Index (BoxTier only).
	Box int
}

// String renders the event for logs.
func (e Event) String() string {
	verb := "fail"
	if e.Repair {
		verb = "repair"
	}
	switch e.Tier {
	case BoxTier:
		return fmt.Sprintf("t=%d %s box r%d/b%d", e.T, verb, e.Rack, e.Box)
	case RackTier:
		return fmt.Sprintf("t=%d %s rack %d", e.T, verb, e.Rack)
	default:
		return fmt.Sprintf("t=%d %s %v", e.T, verb, e.Tier)
	}
}

// less is the canonical event order: time first; at equal times repairs
// before failures (returned capacity is visible to whatever breaks at the
// same instant, and a unit repaired and re-failed in the same tick ends
// failed), then wider tiers before narrower ones, then unit indices. The
// generator sorts with it, so a Plan is deterministic given its inputs,
// and Validate enforces it so hand-built plans replay the same way.
func (e Event) less(o Event) bool {
	if e.T != o.T {
		return e.T < o.T
	}
	if e.Repair != o.Repair {
		return e.Repair
	}
	if e.Tier != o.Tier {
		return e.Tier > o.Tier
	}
	if e.Rack != o.Rack {
		return e.Rack < o.Rack
	}
	return e.Box < o.Box
}

// Plan is a time-ordered fault schedule.
type Plan struct {
	// Events in canonical order (see Event.less).
	Events []Event
}

// RackFailure returns the minimal plan of one whole-rack outage: rack
// fails at failAt and is repaired at healAt. It is the plan behind the
// classic resilience experiment.
func RackFailure(rack int, failAt, healAt int64) *Plan {
	return &Plan{Events: []Event{
		{T: failAt, Tier: RackTier, Rack: rack},
		{T: healAt, Tier: RackTier, Rack: rack, Repair: true},
	}}
}

// Validate checks the plan against a cluster of the given dimensions:
// event order and index ranges.
func (p *Plan) Validate(racks, boxesPerRack int) error {
	for i, e := range p.Events {
		if e.T < 0 {
			return fmt.Errorf("faults: event %d (%v) before t=0", i, e)
		}
		if i > 0 && e.less(p.Events[i-1]) {
			return fmt.Errorf("faults: event %d (%v) out of order after %v", i, e, p.Events[i-1])
		}
		switch e.Tier {
		case BoxTier:
			if e.Rack < 0 || e.Rack >= racks || e.Box < 0 || e.Box >= boxesPerRack {
				return fmt.Errorf("faults: event %d (%v) outside %d racks × %d boxes", i, e, racks, boxesPerRack)
			}
		case RackTier:
			if e.Rack < 0 || e.Rack >= racks {
				return fmt.Errorf("faults: event %d (%v) outside %d racks", i, e, racks)
			}
		default:
			return fmt.Errorf("faults: event %d (%v) has invalid tier", i, e)
		}
	}
	return nil
}

// sortEvents puts events into canonical order.
func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool { return events[i].less(events[j]) })
}
