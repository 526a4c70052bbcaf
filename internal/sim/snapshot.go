// Snapshot support: deterministic capture of a warm simulation state —
// a stream run stopped in its warm phase, or a Driver at a decision
// boundary — and its restoration into a pristine datacenter, such that a
// restored run is bit-identical to the original continuing.
//
// Capture happens only at an event boundary (every event strictly before
// the snapshot point processed, nothing at or after it started), so no
// same-instant fault burst or half-applied transaction can be in flight.
// A stream run is captured in its warm phase (Snapshot.At ≤ Warmup), so
// nothing has been measured yet: no window is open, no latency sample is
// kept, every measured counter is zero, and the resumed run opens its
// measured phase fresh under its own configuration.
// A snapshot holds plain serializable data — no live pointers: compute
// placements are recorded as exact per-brick shares, optical flows as
// structural link paths, heap entries as (time, kind, seq, plan-index,
// VM, assignment-index) tuples in the heap's own array order (the order
// evictDisplaced scans), and the stream's RNG as (seed, draw count)
// replayed on restore (workload.CountingSource). Restoration replays
// placements and flows onto a pristine state first and applies box
// failures afterwards; the resulting brick, link and aggregate values
// equal the original's exactly, because releases return shares to bricks
// even on failed hardware, so live placements fully determine the planes.
//
// The determinism contract: resuming a snapshot under the warm run's
// configuration (same stream construction, same stop bounds and windows,
// same fault plan, same scheduler) yields windowed metrics bit-identical
// to the original run continuing, wall-clock-derived values (latency
// percentiles, SchedulingTime, WallTime) excepted. A snapshot is
// immutable after capture — ResumeStream copies out of it and never
// writes into it — so one snapshot may warm many cells, concurrently,
// without cloning; Clone exists for callers that want an owned copy.
package sim

import (
	"fmt"

	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// StateSnapshot captures the datacenter planes — cluster occupancy,
// fabric occupancy, box failures — plus the scheduler's carried
// decision state, as the set of live assignments that produce them.
// It is the part of a Snapshot that FuzzSnapshotRoundtrip and the
// conformance suite's SnapshotHygiene exercise directly, without an
// event loop around it.
type StateSnapshot struct {
	Racks        int
	BoxesPerRack int
	Assignments  []sched.AssignmentState
	FailedBoxes  []int // rack-major global box indices

	// SchedName names the scheduler the state was captured under; Sched
	// holds its carried decision state when it has any (HasSched).
	// Restore replays Sched only onto a scheduler of the same name —
	// cross-algorithm restores (the benchmark's churn set-up resumes one
	// RISA snapshot under every algorithm) start the new scheduler from
	// its zero state instead.
	SchedName string
	Sched     sched.SchedulerState
	HasSched  bool
}

// EventState is one serialized event-heap entry. A references the
// snapshot's Assignments by index (-1 for none — arrivals, fault events,
// and the ghost departures of displaced VMs). Entries are stored in the
// heap's backing-array order and restored verbatim, preserving both the
// heap property (any valid heap array round-trips) and the array scan
// order evictDisplaced depends on.
type EventState struct {
	T    int64
	Kind int
	Seq  int
	FX   int
	VM   workload.VM
	A    int
}

// QueuedVMState is one retry-queue entry — the live queue's element type
// and, being plain data, its serialized form. Displaced and Preempted
// mark a VM that was already accepted at its arrival and then evicted —
// off failed hardware, or by a higher-priority arrival (preemption):
// placing it again is a recovery, not a second acceptance, and losing it
// for good is not a drop. Seq is the admission sequence: a monotone
// counter stamped once per arrival and once per eviction.
type QueuedVMState struct {
	VM        workload.VM
	Displaced bool
	Preempted bool
	Seq       int
}

// Snapshot is the complete state of a stream run at an event boundary in
// its warm phase — or, with everything from WaitSum on and T left zero,
// of a Driver at a decision boundary: the event core fills the position
// half (capture in core.go), the stream run the observer half. It is
// plain data: gob-serializable (the daemon stores one in its data
// directory), deep-copyable (Clone), and immutable under ResumeStream and
// RestoreDriver.
type Snapshot struct {
	// T is the snapshot boundary (WarmStream's StreamSnapshot.At, at
	// most the warm run's Warmup): every event with time < T is
	// reflected in the state, nothing at or after T is. LastT is the time
	// of the last event actually processed (≤ T).
	T     int64
	LastT int64

	State StateSnapshot

	// Events is the pending event heap in backing-array order; Seq the
	// next event sequence number.
	Events []EventState
	Seq    int

	Resident int

	Waiting []QueuedVMState
	WaitSum float64
	// AdmitSeq is the retry queue's admission counter (zero in snapshots
	// from before admission sequences existed).
	AdmitSeq int

	// PlanLen is the length of the fault plan the run was driven by, 0
	// when it had none (eventCore.restore states the linkage rule);
	// DownCount holds the per-box outage refcounts.
	PlanLen   int
	DownCount []int

	// Counters is the partial SteadyState at the boundary: the whole-run
	// counters and SchedulingTime, its measured figures still zero
	// (WallTime zero too — wall clock restarts on resume).
	Counters SteadyState
	// Signal is the utilization signal per resource, in percent, as last
	// sampled: the resumed run integrates it from LastT on.
	Signal [units.NumResources]float64

	// Stream is the workload stream's replay position, captured after
	// drawing PendingVM: the stream's next yield is PendingVM's
	// successor. More mirrors the run's arrival-budget flag.
	Stream    workload.StreamState
	PendingVM workload.VM
	More      bool
}

// Clone returns a deep copy sharing nothing with s. ResumeStream never
// mutates a snapshot, so cloning is only needed when a caller wants an
// independently owned copy (e.g. to serialize one while resuming
// another); the benchmark's churn set-up resumes one snapshot many
// times directly.
func (s *Snapshot) Clone() *Snapshot {
	c := *s
	c.State.Assignments = make([]sched.AssignmentState, len(s.State.Assignments))
	for i, a := range s.State.Assignments {
		a.CPU.Shares = append([]topology.BrickShare(nil), a.CPU.Shares...)
		a.RAM.Shares = append([]topology.BrickShare(nil), a.RAM.Shares...)
		a.STO.Shares = append([]topology.BrickShare(nil), a.STO.Shares...)
		a.CPURAM.Links = append([]network.LinkRef(nil), a.CPURAM.Links...)
		a.RAMSTO.Links = append([]network.LinkRef(nil), a.RAMSTO.Links...)
		c.State.Assignments[i] = a
	}
	c.State.FailedBoxes = append([]int(nil), s.State.FailedBoxes...)
	c.State.Sched.BoxCursors = append([][units.NumResources]int(nil), s.State.Sched.BoxCursors...)
	c.Events = append([]EventState(nil), s.Events...)
	c.Waiting = append([]QueuedVMState(nil), s.Waiting...)
	c.DownCount = append([]int(nil), s.DownCount...)
	c.Counters.Windows = append([]WindowStats(nil), s.Counters.Windows...)
	return &c
}

// CaptureState captures the datacenter planes and the scheduler's
// carried state, with each live assignment's exact holdings (State.Hold)
// in the given order (callers that also serialize an event heap pass them
// in heap order so events can reference them by index). The state is
// read, not mutated.
func CaptureState(st *sched.State, sch sched.Scheduler, live []*sched.Assignment) (*StateSnapshot, error) {
	cl := st.Cluster
	snap := &StateSnapshot{
		Racks:        cl.NumRacks(),
		BoxesPerRack: cl.Config().BoxesPerRack(),
		FailedBoxes:  cl.FailedBoxes(),
	}
	snap.Assignments = make([]sched.AssignmentState, len(live))
	for i, a := range live {
		if a == nil {
			return nil, fmt.Errorf("sim: cannot capture a nil assignment")
		}
		st.Hold(a, &snap.Assignments[i])
	}
	if sch != nil {
		snap.SchedName = sch.Name()
		if ss, ok := sch.(sched.StatefulScheduler); ok {
			snap.Sched = ss.SchedulerState()
			snap.HasSched = true
		}
	}
	return snap, nil
}

// RestoreState replays a captured state onto a pristine st: every live
// assignment's holdings are put back into a fresh record through
// State.Replay — exact brick shares, exact links — then box failures are
// applied, then the scheduler's carried state is replayed
// (only when sch bears the same name the state was captured under —
// cross-algorithm restores start sch from its zero state). It returns
// the restored assignments in the snapshot's order. On error the state
// is partially mutated and must be discarded.
func RestoreState(st *sched.State, sch sched.Scheduler, snap *StateSnapshot) ([]*sched.Assignment, error) {
	cl := st.Cluster
	if cl.NumRacks() != snap.Racks || cl.Config().BoxesPerRack() != snap.BoxesPerRack {
		return nil, fmt.Errorf("sim: snapshot is for a %d-rack × %d-box cluster, state has %d × %d",
			snap.Racks, snap.BoxesPerRack, cl.NumRacks(), cl.Config().BoxesPerRack())
	}
	if err := checkPristine(st); err != nil {
		return nil, err
	}
	live := make([]*sched.Assignment, 0, len(snap.Assignments))
	for i := range snap.Assignments {
		a, err := st.Replay(nil, &snap.Assignments[i])
		if err != nil {
			return nil, err
		}
		live = append(live, a)
	}
	boxes := cl.Boxes()
	for _, bi := range snap.FailedBoxes {
		if bi < 0 || bi >= len(boxes) {
			return nil, fmt.Errorf("sim: failed box index %d out of range", bi)
		}
		cl.SetBoxFailed(boxes[bi], true)
	}
	if snap.HasSched && sch != nil && sch.Name() == snap.SchedName {
		if ss, ok := sch.(sched.StatefulScheduler); ok {
			ss.RestoreSchedulerState(snap.Sched)
		}
	}
	return live, nil
}

// checkPristine rejects restore targets that already carry state: a
// freshly built State has every plane at full capacity and no failures.
func checkPristine(st *sched.State) error {
	cl := st.Cluster
	for _, k := range units.Resources() {
		if cl.TotalFree(k) != cl.TotalCapacity(k) {
			return fmt.Errorf("sim: restore target not pristine: %v free %d != capacity %d",
				k, cl.TotalFree(k), cl.TotalCapacity(k))
		}
	}
	f := st.Fabric
	if f.IntraRackFree() != f.IntraRackCapacity() ||
		f.InterRackFree() != f.InterRackCapacity() ||
		f.InterPodFree() != f.InterPodCapacity() {
		return fmt.Errorf("sim: restore target not pristine: fabric carries reservations")
	}
	if len(cl.FailedBoxes()) > 0 {
		return fmt.Errorf("sim: restore target not pristine: hardware failures present")
	}
	return nil
}

// capture assembles the full Snapshot at the current event boundary:
// the observer half here, the position half by the event core. In the
// warm phase the observer half is the whole-run counters, the retry
// queue's wait sum, the utilization signal and the stream's position;
// windows and reservoirs are still empty. It only reads — the run can
// continue unperturbed afterwards.
func (sr *streamRun) capture() (*Snapshot, error) {
	snapper, ok := sr.s.(workload.StreamSnapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: stream %q does not support snapshots", sr.s.Name())
	}
	snap := &Snapshot{
		T:         sr.cfg.Snapshot.At,
		WaitSum:   sr.waitSum,
		Counters:  *sr.res,
		Signal:    sr.wind.val,
		Stream:    snapper.StreamState(),
		PendingVM: sr.pending,
		More:      sr.more,
	}
	return snap, sr.c.capture(snap)
}

// WarmStream runs the stream up to cfg.Snapshot.At and returns the
// snapshot captured there, leaving the runner's state warm. The point
// must lie in the warm phase, 0 < At ≤ Windows.Warmup. The warm
// configuration's stop bounds (MaxArrivals, Duration, Warmup, Window)
// must equal the resume configuration's for a resumed run to be
// bit-identical to an uninterrupted one — the experiment ladders pass
// the same StreamConfig to both. It fails if the run ends before the
// snapshot point.
func (r *Runner) WarmStream(s workload.Stream, cfg StreamConfig) (*Snapshot, error) {
	if at := cfg.Snapshot.At; at <= 0 || at > cfg.Windows.Warmup {
		return nil, fmt.Errorf("sim: WarmStream captures in the warm phase: Snapshot.At %d is outside (0, warmup %d]", at, cfg.Windows.Warmup)
	}
	sr, err := r.newStreamRun(s, cfg)
	if err != nil {
		return nil, err
	}
	if err := sr.loop(); err != nil {
		return nil, err
	}
	if sr.snap == nil {
		return nil, fmt.Errorf("sim: stream %q ended at t=%d, before the snapshot point %d",
			s.Name(), sr.c.now, cfg.Snapshot.At)
	}
	return sr.snap, nil
}

// ResumeStream continues a snapshotted run on this runner: the runner's
// state must be pristine (it is restored from the snapshot), s must be
// a pristine stream built with the same configuration as the snapshot's
// (it is repositioned by replay), and cfg's warmup must not end before
// the snapshot point. The measured phase starts fresh under cfg's
// windows; with the warm run's stop bounds and windows the resumed run
// is bit-identical to an uninterrupted one. It refuses Snapshot.At: a
// resumed run does not capture again.
//
// The runner's fault plan must be as long as the one the snapshot was
// taken under (see eventCore.restore).
//
// The snapshot itself is never written to: many cells may resume the
// same snapshot, including concurrently from separate goroutines each
// with their own runner and stream.
func (r *Runner) ResumeStream(s workload.Stream, snap *Snapshot, cfg StreamConfig) (*SteadyState, error) {
	if err := noCapture(cfg); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sr := r.bind(s, cfg)
	snapper, ok := s.(workload.StreamSnapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: stream %q does not support snapshots", s.Name())
	}
	// Refused before the restore, so the runner stays pristine; a nil
	// snapshot is the restore's to refuse.
	if snap != nil && cfg.Windows.Warmup < snap.T {
		return nil, fmt.Errorf("sim: warmup %d ends before the snapshot point %d, and a snapshot holds nothing measured", cfg.Windows.Warmup, snap.T)
	}
	if err := sr.c.restore(snap); err != nil {
		return nil, err
	}
	if err := snapper.RestoreStreamState(snap.Stream); err != nil {
		return nil, err
	}

	resCopy := snap.Counters
	resCopy.Algorithm = r.sch.Name()
	resCopy.Workload = s.Name()
	resCopy.Windows = nil
	sr.res = &resCopy
	sr.openMeasurement()
	sr.wind.lastT, sr.wind.val = snap.LastT, snap.Signal
	sr.waitSum = snap.WaitSum
	sr.pending, sr.more = snap.PendingVM, snap.More
	// The pending arrival was drawn under the warm bounds; re-apply this
	// configuration's Duration to it (a no-op when the bounds agree). If
	// it no longer fits, the run is already past its bound: stop before
	// processing anything, exactly as a fresh run stops at its last
	// in-bound arrival without draining the resident departures.
	if sr.more && cfg.Workload.Duration > 0 && sr.pending.Arrival > cfg.Workload.Duration {
		sr.more = false
		sr.res.TotalArrivals--
	} else if err := sr.loop(); err != nil {
		return nil, err
	}
	return sr.finish(), nil
}
