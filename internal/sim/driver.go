// Step-wise drive API: the placement-as-a-service daemon (internal/svc)
// owns a live cluster but has no workload stream to pull from — arrivals
// come one at a time over HTTP, interleaved with live cluster mutations.
// Driver steps the simulator's event core one externally supplied event
// at a time: each Place steps through everything that precedes an
// arrival at the VM's time (releasing every departure due by then —
// the core's departures-before-arrivals order), each Apply applies a
// hardware failure or repair the way a fault-plan event would, and
// Snapshot/RestoreDriver capture and restore the complete driver state
// at a decision boundary — the event core's position in the same Snapshot
// type a stream run fills, its observer half left zero — the foundation
// of the daemon's restore-then-replay crash recovery.
//
// Determinism contract: a Driver's visible decisions are a pure function
// of the sequence of Place/Apply/SetScheduler calls (and the initial
// state), never of wall-clock time. Replaying the same call sequence on
// a fresh driver — or the suffix of it on a restored snapshot —
// reproduces every placement bit-identically, which is what the daemon's
// write-ahead journal relies on.
package sim

import (
	"fmt"
	"math"

	"risa/internal/faults"
	"risa/internal/sched"
	"risa/internal/workload"
)

// Driver drives one scheduler over one datacenter state, one externally
// supplied event at a time: it steps the simulator's event core with no
// observer, no fault plan and no retry queue. It is single-writer: not
// safe for concurrent use (the daemon serializes all calls through its
// worker loop).
type Driver struct {
	c *eventCore
}

// NewDriver binds a driver to st and sch. The scheduler must be bound to
// st (sched.New does that).
func NewDriver(st *sched.State, sch sched.Scheduler) *Driver {
	return &Driver{c: newEventCore(st, sch, nil, Faults{})}
}

// Now returns the driver's current virtual time: the time of the last
// event processed.
func (d *Driver) Now() int64 { return d.c.now }

// Resident returns the number of VMs currently placed.
func (d *Driver) Resident() int { return d.c.resident }

// SetScheduler hot-swaps the bound scheduler at a decision boundary.
// Every index query is exact whatever its lazy tiers hold, so the
// incoming algorithm needs no preparation. Pending departures made by
// the old scheduler release fine through the new one — Release operates
// on the shared State and its pools, exactly like a cross-algorithm
// snapshot resume.
func (d *Driver) SetScheduler(sch sched.Scheduler) {
	d.c.sch = sch
}

// reach steps the core through every pending event that precedes an
// external event of kind k at time t, then moves the clock there. Time
// never goes backwards: t earlier than the current time is clamped, and
// the effective time is returned.
func (d *Driver) reach(t int64, k eventKind) int64 {
	c := d.c
	t = max(t, c.now)
	// Neither step nor tick can fail: the heap pops in time order, nothing
	// is queued before the clock (Place refuses a departure past the end of
	// time), and t is clamped. A failure is a broken invariant, not a
	// decision, so it panics rather than letting replay diverge.
	for c.due(t, k) {
		if err := c.step(); err != nil {
			panic(err)
		}
	}
	if err := c.tick(t); err != nil {
		panic(err)
	}
	return t
}

// Place advances virtual time to the VM's arrival (clamped to now — a
// late-stamped request places at the current time) and admits it. On
// success the VM's departure is queued at its lifetime's end and the
// assignment returned with the effective placement time; on failure the
// scheduling error describes why the VM was rejected, the state
// untouched. Invalid VMs are rejected before time advances, and so is a
// VM whose departure time would overflow int64.
func (d *Driver) Place(vm workload.VM) (*sched.Assignment, int64, error) {
	if err := vm.Validate(); err != nil {
		return nil, d.c.now, err
	}
	if at := max(vm.Arrival, d.c.now); vm.Lifetime > math.MaxInt64-at {
		return nil, d.c.now, fmt.Errorf("sim: VM %d placed at t=%d with lifetime %d would depart past the end of time", vm.ID, at, vm.Lifetime)
	}
	t := d.reach(vm.Arrival, arrival)
	a, err := d.c.admit(vm)
	return a, t, err
}

// Apply advances virtual time to the event's timestamp and applies one
// box- or rack-scope failure or repair through the per-box outage
// refcounts (a box returns to service only at the last covering repair).
// Like a fault-plan event it precedes the departures of its own instant,
// which release at the next step. Resident VMs ride out the outage in
// place — their circuits are established and releases return shares even
// on failed hardware — while new arrivals route around the hole; this is
// the default (non-Evict) fault semantics.
func (d *Driver) Apply(ev faults.Event) error {
	cl := d.c.st.Cluster
	// A one-event plan validates exactly the driver's scope: a known tier,
	// box and rack coordinates in range.
	one := faults.Plan{Events: []faults.Event{{Tier: ev.Tier, Rack: ev.Rack, Box: ev.Box}}}
	if err := one.Validate(cl.NumRacks(), cl.Config().BoxesPerRack()); err != nil {
		return fmt.Errorf("sim: driver mutations are box- or rack-scope in range: %w", err)
	}
	d.reach(ev.T, fault)
	d.c.fault(ev)
	return nil
}

// Snapshot captures the driver's complete state at the current decision
// boundary: the event core's position, the Snapshot's observer half left
// zero. It only reads — the driver continues unperturbed.
func (d *Driver) Snapshot() (*Snapshot, error) {
	snap := &Snapshot{}
	if err := d.c.capture(snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// RestoreDriver rebuilds a driver from a snapshot onto a pristine st:
// placements and flows are replayed through the real allocation paths,
// hardware failures re-applied, the pending-departure heap rebuilt
// verbatim, and the scheduler's carried cursor state replayed when sch
// bears the name the snapshot was captured under (a swapped-algorithm
// snapshot restores its own algorithm's cursors; cross-algorithm
// restores start sch from zero state). Continuing the restored driver
// with the original call-sequence suffix reproduces the original's
// decisions bit-identically.
func RestoreDriver(st *sched.State, sch sched.Scheduler, snap *Snapshot) (*Driver, error) {
	d := NewDriver(st, sch)
	if err := d.c.restore(snap); err != nil {
		return nil, err
	}
	return d, nil
}
