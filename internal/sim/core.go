package sim

import (
	"errors"
	"fmt"
	"time"

	"risa/internal/faults"
	"risa/internal/sched"
	"risa/internal/workload"
)

// eventKind ranks simultaneous events (see eventCore for the rule). The
// numeric values are wire format: EventState.Kind stores them in gob
// snapshots (risasim -snapshot files, risasvc data directories), so they
// are pinned. 0 is reserved (a retired kind no snapshot could hold) and
// rejected on restore.
type eventKind uint8

const (
	fault eventKind = iota + 1
	departure
	arrival // never queued: the rank arrivals merge into the heap order with
)

// event is one heap entry: a fault-plan event or a resident VM's
// departure. The queue's cost is the bytes its sifts move, so the entry
// carries no VM of its own: a live departure's VM is a.VM, and only a
// ghost — a departure whose VM was unseated, a nil — holds the VM it had
// behind a pointer, for the snapshot's EventState.VM.
type event struct {
	t     int64
	seq   int               // tie-break: FIFO among equal (t, kind)
	a     *sched.Assignment // departure only; nil marks a ghost (see unseat)
	ghost *workload.VM      // ghost only
	fx    int32             // fault only: index into the fault plan
	kind  eventKind
}

// Less orders events by (time, kind, sequence). It is the ordering the
// event queue (heap4.go) pops by.
func (e *event) Less(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	if e.kind != o.kind {
		return e.kind < o.kind
	}
	return e.seq < o.seq
}

// observer receives the outcomes of the event core's steps. It is what
// the drivers differ in: Run integrates power and utilization, the stream
// run fills windows and reservoirs, the Driver observes nothing (nil).
type observer interface {
	// advance fires before the clock moves to the time `to`.
	advance(to int64)
	// decided reports the wall clock of one scheduling attempt; direct
	// marks an arrival's own first decision (not a retry or a preemption).
	decided(vm workload.VM, d time.Duration, direct bool)
	// placed reports a VM taking up residence under a — fresh, or a
	// displaced/preempted one recovering; waited marks retry-queue exits.
	placed(q QueuedVMState, a *sched.Assignment, waited bool)
	// enqueued reports a VM entering the retry queue.
	enqueued(q QueuedVMState)
	// dropped reports a VM gone for good: rejected at arrival, lost to a
	// failure, or still queued when the run ended.
	dropped(q QueuedVMState)
	// releasing fires while a's holdings are still attached: at the VM's
	// departure, or (evicted) before a fault displaces it.
	releasing(vm workload.VM, a *sched.Assignment, evicted bool)
	// displaced reports one fault eviction; on recovery a holds the new
	// placement and d is the re-placement's wall clock.
	displaced(a *sched.Assignment, recovered bool, d time.Duration)
}

// epoch is the origin every measured decision's two edges are read
// against: time.Since is one monotonic clock read, where time.Now also
// reads the wall clock.
var epoch = time.Now()

// errQueuedBehind is admit's verdict for an arrival that joined a
// non-empty retry queue without a decision of its own.
var errQueuedBehind = errors.New("sim: queued behind earlier arrivals")

// eventCore is the one event machine every driver steps — Runner.Run,
// RunStream/WarmStream/ResumeStream and the service Driver. It owns the
// pending-event heap, the clock, the resident count, the fault plan's
// outage refcounts, the retry queue, eviction and preemption. Drivers
// choose when to step and what to observe; the rules below are stated
// here and nowhere else.
//
// Same-instant order. At one timestamp, faults apply first, then
// departures release, then arrivals are admitted (eventKind order, FIFO
// within a kind). Faults precede departures so a VM departing at the
// instant its box fails still releases into a failed box (the
// deferred-capacity path); since releases return shares even to failed
// boxes, the planes end identical either way unless eviction is on.
// Departures precede arrivals so releasing VMs make room for arriving
// ones. An externally supplied event (an arrival, a Driver.Apply fault)
// merges as if queued last among its kind: see due.
//
// Burst atomicity. Same-instant faults form one burst: every one of them
// applies before any eviction or queue drain, so a correlated outage
// cannot leak VMs onto hardware that fails in the same tick.
//
// Queue order. Under Retry, VMs that cannot be placed wait in
// tier-then-admission-sequence order (queueBefore) and drain head-first —
// a blocked head blocks the rest — after every departure and every burst
// that repaired something. An arrival finding the queue non-empty joins
// it instead of jumping it. A waiting VM's lifetime starts when placed.
type eventCore struct {
	st  *sched.State
	sch sched.Scheduler
	obs observer // nil observes nothing
	f   Faults   // the run's fault surface, by value

	h        eventQueue
	seq      int
	now      int64
	resident int

	// downCount is the per-box outage refcount (faults.go); burstFail and
	// burstRepair describe the same-instant burst in flight.
	downCount              []int
	burstFail, burstRepair bool

	// The retry queue lives behind a head cursor so the backing array is
	// reused once drained; admitSeq feeds QueuedVMState.Seq.
	waiting  []QueuedVMState
	wHead    int
	admitSeq int

	scratch sched.Scratch // victim-selection workspace (preempt.go)
}

// newEventCore binds a core to one state, scheduler, observer and fault
// surface. The plan's events are not queued yet: see seedPlan.
func newEventCore(st *sched.State, sch sched.Scheduler, obs observer, f Faults) *eventCore {
	return &eventCore{st: st, sch: sch, obs: obs, f: f, downCount: make([]int, len(st.Cluster.Boxes()))}
}

// seedPlan queues the fault plan's events from time `from` on (0 for a
// fresh run; a plan-free snapshot resumed under a plan starts its faults
// at the snapshot point).
func (c *eventCore) seedPlan(from int64) {
	if c.f.Plan == nil {
		return
	}
	for i, ev := range c.f.Plan.Events {
		if ev.T >= from {
			c.h.Push(event{t: ev.T, kind: fault, seq: c.seq, fx: int32(i)})
			c.seq++
		}
	}
}

// due reports whether the heap's minimum precedes an external event of
// kind k at time t — the merge rule between queued and supplied events.
func (c *eventCore) due(t int64, k eventKind) bool {
	if c.h.Len() == 0 {
		return false
	}
	m := c.h.Min()
	return m.t < t || (m.t == t && m.kind < k)
}

// heapFirst decides a stream driver's merge between the heap and its
// single materialized pending arrival (more reports that one exists);
// same-instant arrivals keep stream order because only one is
// materialized at a time.
func (c *eventCore) heapFirst(pendingArrival int64, more bool) bool {
	return c.h.Len() > 0 && (!more || c.due(pendingArrival, arrival))
}

// tick moves the clock to t. Time never runs backwards.
func (c *eventCore) tick(t int64) error {
	if t < c.now {
		return fmt.Errorf("sim: event time went backwards: %d < %d", t, c.now)
	}
	if c.obs != nil {
		c.obs.advance(t)
	}
	c.now = t
	return nil
}

// step pops and processes the heap's minimum: a fault-plan event, or a
// departure with the queue drain its freed capacity allows.
func (c *eventCore) step() error {
	e := c.h.Pop()
	if err := c.tick(e.t); err != nil {
		return err
	}
	if e.kind == fault {
		c.fault(c.f.Plan.Events[e.fx])
	} else if c.release(e.a) && c.f.Retry {
		c.drain()
	}
	return nil
}

// release returns a departing VM's holdings; ghosts (see unseat) hold
// none and report false.
func (c *eventCore) release(a *sched.Assignment) bool {
	if a == nil {
		return false
	}
	if c.obs != nil {
		c.obs.releasing(a.VM, a, false)
	}
	c.sch.Release(a)
	c.resident--
	return true
}

// fault applies one failure or repair at the current instant and, once
// the same-instant burst is complete, evicts and drains.
func (c *eventCore) fault(ev faults.Event) {
	c.applyFault(ev)
	if ev.Repair {
		c.burstRepair = true
	} else {
		c.burstFail = true
	}
	if c.h.Len() > 0 && c.h.Min().t == c.now && c.h.Min().kind == fault {
		return // finish the whole burst first
	}
	if c.f.Evict && c.burstFail {
		c.evictDisplaced()
	}
	if c.f.Retry && c.burstRepair {
		c.drain()
	}
	c.burstFail, c.burstRepair = false, false
}

// admit runs one arrival at the current instant through the admission
// rule: join a non-empty queue, else decide and settle. It returns the
// assignment when the VM was placed by its own decision, else why not.
func (c *eventCore) admit(vm workload.VM) (*sched.Assignment, error) {
	q := QueuedVMState{VM: vm, Seq: c.nextSeq()}
	if c.queued() {
		c.enqueue(q)
		c.drain()
		return nil, errQueuedBehind
	}
	a, err := c.decide(vm, true)
	c.settle(q, a, err)
	return a, err
}

// nextSeq stamps one admission sequence number.
func (c *eventCore) nextSeq() int {
	c.admitSeq++
	return c.admitSeq
}

// decide is the one scheduling attempt: the bound scheduler, then — for
// an arrival above the lowest tier under Preempt — displacement of
// strictly-lower-tier victims.
func (c *eventCore) decide(vm workload.VM, direct bool) (*sched.Assignment, error) {
	var start time.Duration
	if c.obs != nil {
		start = time.Since(epoch)
	}
	a, err := c.sch.Schedule(vm)
	if c.obs != nil {
		c.obs.decided(vm, time.Since(epoch)-start, direct)
	}
	if err != nil && c.f.Preempt && vm.Tier < workload.NumTiers-1 {
		a, err = c.tryPreempt(vm)
	}
	return a, err
}

// settle books a decision's outcome at the current instant: place,
// enqueue or drop.
func (c *eventCore) settle(q QueuedVMState, a *sched.Assignment, err error) {
	switch {
	case err == nil:
		c.place(q, a, c.now, false)
	case c.f.Retry:
		c.enqueue(q)
	case c.obs != nil:
		c.obs.dropped(q)
	}
}

// place makes a VM resident and queues its departure one lifetime after
// at.
func (c *eventCore) place(q QueuedVMState, a *sched.Assignment, at int64, waited bool) {
	c.resident++
	if c.obs != nil {
		c.obs.placed(q, a, waited)
	}
	c.h.Push(event{t: at + q.VM.Lifetime, kind: departure, seq: c.seq, a: a})
	c.seq++
}

// queueBefore is the retry queue's total order: priority tier first
// (tier 0 drains before tier 1), admission sequence within a tier.
func queueBefore(a, b QueuedVMState) bool {
	if a.VM.Tier != b.VM.Tier {
		return a.VM.Tier < b.VM.Tier
	}
	return a.Seq < b.Seq
}

// queued reports whether any VM waits in the retry queue.
func (c *eventCore) queued() bool { return c.wHead < len(c.waiting) }

// enqueue reports and inserts one retry-queue entry.
func (c *eventCore) enqueue(q QueuedVMState) {
	c.obs.enqueued(q)
	c.insert(q)
}

// insert slots one entry into the retry queue in queueBefore order.
// Equal-tier serial admissions are monotone, so the common path is a
// plain append; a higher-tier entry is slotted back where the order says.
func (c *eventCore) insert(q QueuedVMState) {
	n := len(c.waiting)
	if n == c.wHead || !queueBefore(q, c.waiting[n-1]) {
		c.waiting = append(c.waiting, q)
		return
	}
	c.waiting = append(c.waiting, QueuedVMState{})
	i := n
	for i > c.wHead && queueBefore(q, c.waiting[i-1]) {
		c.waiting[i] = c.waiting[i-1]
		i--
	}
	c.waiting[i] = q
}

// drain retries the queue head-first. Under preemption a blocked head
// gets its preemption attempt (decide) before it blocks the rest; victims
// are strictly lower tier than the head, so they queue behind it and the
// drain terminates — preemption chains strictly descend the tier order.
func (c *eventCore) drain() {
	for c.queued() {
		q := c.waiting[c.wHead]
		a, err := c.decide(q.VM, false)
		if err != nil {
			return // the head blocks the rest
		}
		c.waiting[c.wHead] = QueuedVMState{}
		c.wHead++
		c.place(q, a, c.now, true)
	}
	c.waiting = c.waiting[:0]
	c.wHead = 0
}

// abandon reports every VM still queued at the end of a run as dropped.
func (c *eventCore) abandon() {
	for _, q := range c.waiting[c.wHead:] {
		c.obs.dropped(q)
	}
}

// unseat turns a resident VM (q.VM) whose holdings are already released
// into a ghost — its departure event stays queued with a nil assignment,
// which release skips, keeping the VM only for snapshots — and sends the
// VM to the retry queue (waiting from now, its lifetime restarting when
// re-placed) or, without one, drops it.
func (c *eventCore) unseat(e *event, q QueuedVMState) {
	c.st.ReleaseVM(e.a) // holdings already released: pools the shell
	vm := q.VM          // a copy: q's own restarts its wait below
	e.a, e.ghost = nil, &vm
	c.resident--
	if !c.f.Retry {
		c.obs.dropped(q)
		return
	}
	q.VM.Arrival = c.now
	q.Seq = c.nextSeq()
	c.enqueue(q)
}

// capture records the core's whole position into snap, and only reads:
// the pending events in the heap's backing-array order (the order
// evictDisplaced scans) referencing live assignments by index, the
// datacenter state behind them, the clock and counters, the retry queue,
// the outage refcounts and the plan's length (-1 without one). The
// observer half of a Snapshot is its driver's to fill.
func (c *eventCore) capture(snap *Snapshot) error {
	if c.burstFail || c.burstRepair {
		// Unreachable: captures happen at event boundaries and a burst's
		// events share one instant. Guard loudly anyway.
		return fmt.Errorf("sim: internal: snapshot inside a same-instant fault burst")
	}
	live := make([]*sched.Assignment, 0, c.h.Len())
	events := make([]EventState, 0, c.h.Len())
	for i := range c.h.s {
		e := &c.h.s[i]
		es := EventState{T: e.t, Kind: int(e.kind), Seq: e.seq, FX: int(e.fx), A: -1}
		if e.a != nil {
			es.VM, es.A = e.a.VM, len(live)
			live = append(live, e.a)
		} else if e.ghost != nil {
			es.VM = *e.ghost
		}
		events = append(events, es)
	}
	state, err := CaptureState(c.st, c.sch, live)
	if err != nil {
		return err
	}
	snap.State, snap.Events = *state, events
	snap.LastT, snap.Seq, snap.Resident, snap.AdmitSeq = c.now, c.seq, c.resident, c.admitSeq
	snap.Waiting = append([]QueuedVMState(nil), c.waiting[c.wHead:]...)
	snap.DownCount = append([]int(nil), c.downCount...)
	snap.PlanLen = -1
	if c.f.Plan != nil {
		snap.PlanLen = len(c.f.Plan.Events)
	}
	return nil
}

// restore positions a fresh core over a pristine state at snap, which it
// never writes to. The heap's backing array is rebuilt verbatim — the
// snapshot recorded a valid heap in array order, so assigning it
// preserves the heap property and the eviction scan order. Only fault
// events of the core's plan and departures are restorable, a live
// departure only with the VM its assignment carries; absent refcounts
// (a snapshot that ran without faults) start at zero.
//
// Fault-plan linkage follows Snapshot.PlanLen: a snapshot taken under a
// plan requires this core to carry an equally long one (the pending fault
// events reference it by index, a nil plan counting as empty); a
// plan-free snapshot restored under a plan queues the plan's events from
// the snapshot point on — events before it never apply, which is exactly
// the clone-mode ladders' fault-free warm semantics.
func (c *eventCore) restore(snap *Snapshot) error {
	if snap == nil {
		return errors.New("sim: no snapshot to restore")
	}
	planLen := 0
	if c.f.Plan != nil {
		planLen = len(c.f.Plan.Events)
	}
	if snap.PlanLen >= 0 && snap.PlanLen != planLen {
		return fmt.Errorf("sim: snapshot was taken under a %d-event fault plan, this run's has %d", snap.PlanLen, planLen)
	}
	if snap.DownCount != nil && len(snap.DownCount) != len(c.downCount) {
		return fmt.Errorf("sim: snapshot carries %d outage refcounts, run tracks %d boxes", len(snap.DownCount), len(c.downCount))
	}
	for _, q := range snap.Waiting {
		if err := q.VM.Validate(); err != nil {
			return fmt.Errorf("sim: snapshot retry queue: %w", err)
		}
	}
	live, err := RestoreState(c.st, c.sch, &snap.State)
	if err != nil {
		return err
	}
	copy(c.downCount, snap.DownCount)
	c.h.s = make([]event, len(snap.Events))
	for i, es := range snap.Events {
		e := event{t: es.T, kind: eventKind(es.Kind), seq: es.Seq, fx: int32(es.FX)}
		switch {
		case es.Kind == int(fault) && es.FX >= 0 && es.FX < planLen:
			// a pending event of this run's plan
		case es.Kind == int(departure) && es.A < 0:
			vm := es.VM // a ghost
			e.ghost = &vm
		case es.Kind == int(departure) && es.A < len(live) && es.VM == live[es.A].VM:
			e.a = live[es.A]
		default:
			return fmt.Errorf("sim: snapshot event %d (kind %d, plan index %d, assignment %d of %d) cannot be restored",
				i, es.Kind, es.FX, es.A, len(live))
		}
		c.h.s[i] = e
	}
	c.now, c.seq, c.resident, c.admitSeq = snap.LastT, snap.Seq, snap.Resident, snap.AdmitSeq
	c.waiting = append(c.waiting[:0], snap.Waiting...)
	if snap.PlanLen < 0 {
		c.seedPlan(snap.T)
	}
	return nil
}
