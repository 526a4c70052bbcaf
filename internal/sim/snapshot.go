// Snapshot support: deterministic capture of a complete mid-run
// simulation state and its restoration into a pristine datacenter, such
// that a restored run is bit-identical to the original continuing.
//
// Capture happens only at an event boundary (every event strictly before
// the snapshot point processed, nothing at or after it started), so no
// same-instant fault burst or half-applied transaction can be in flight.
// A snapshot holds plain serializable data — no live pointers: compute
// placements are recorded as exact per-brick shares, optical flows as
// structural link paths, heap entries as (time, kind, seq, plan-index,
// VM, assignment-index) tuples in the heap's own array order (the order
// evictDisplaced scans), and every RNG as (seed, draw count) replayed on
// restore (workload.CountingSource). Restoration replays placements and
// flows onto a pristine state first and applies hardware failures
// afterwards; the resulting brick, link and aggregate values equal the
// original's exactly, because releases return shares to bricks even on
// failed hardware, so live placements fully determine the planes.
//
// The determinism contract: resuming a snapshot under the same
// configuration (same stream construction, same stop bounds, same fault
// plan, same scheduler) yields windowed metrics bit-identical to the
// original run continuing, wall-clock-derived values (latency
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
// fabric occupancy, hardware failures — plus the scheduler's carried
// decision state, as the set of live assignments that produce them.
// It is the part of a Snapshot that FuzzSnapshotRoundtrip and the
// conformance suite's SnapshotHygiene exercise directly, without an
// event loop around it.
type StateSnapshot struct {
	Racks        int
	BoxesPerRack int
	Assignments  []sched.AssignmentState
	FailedBoxes  []int // rack-major global box indices
	FailedLinks  []network.LinkRef

	// SchedName names the scheduler the state was captured under; Sched
	// holds its carried decision state when it has any (HasSched).
	// Restore replays Sched only onto a scheduler of the same name —
	// cross-algorithm restores (the experiment ladders' clone mode) start
	// the new scheduler from its zero state instead.
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

// ReservoirState is the serializable position of one latency reservoir:
// its buffer plus the (seed, draw-count) replay coordinates of its
// sampling RNG, so a restored run keeps sampling exactly as the
// original would have.
type ReservoirState struct {
	K     int
	N     int64
	Seed  int64
	Draws uint64
	Vals  []float64
}

// WindowerState is the serializable position of the windowed-metrics
// integrator: the open window, its partial integrals, every closed
// window, and the overall measured integral.
type WindowerState struct {
	Warmup, Window int64
	Cur            WindowStats
	CurIntegral    [units.NumResources]float64
	Windows        []WindowStats
	Overall        [units.NumResources]float64
	Val            [units.NumResources]float64
	LastT          int64
}

// Snapshot is the complete state of a RunStream execution at an event
// boundary — or, with everything from WaitSum on and T left zero, of a
// Driver at a decision boundary: the event core fills the position half
// (capture in core.go), the stream run the observer half. It is plain
// data: gob-serializable (the CLI and the daemon each wrap it in a file
// struct of their own), deep-copyable (Clone), and immutable under
// ResumeStream and RestoreDriver.
type Snapshot struct {
	// T is the snapshot boundary (WarmStream's StreamSnapshot.At):
	// every event with time < T is reflected in the state, nothing at or
	// after T is. LastT is the time of the last event actually processed
	// (≤ T).
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

	// PlanLen is the length of the fault plan the run was driven by, or
	// -1 when it had none (eventCore.restore states the linkage rule);
	// DownCount holds the per-box outage refcounts.
	PlanLen   int
	DownCount []int

	// Counters is the partial SteadyState at the boundary (Windows nil —
	// they live in Windower until the run finishes; WallTime zero — wall
	// clock restarts on resume).
	Counters SteadyState
	Windower WindowerState
	Lat, Rep ReservoirState
	// TierLat holds the per-tier direct-decision latency reservoirs.
	TierLat [workload.NumTiers]ReservoirState

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
// another); the experiment ladders resume one snapshot many times
// directly.
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
	c.State.FailedLinks = append([]network.LinkRef(nil), s.State.FailedLinks...)
	c.State.Sched.BoxCursors = append([][units.NumResources]int(nil), s.State.Sched.BoxCursors...)
	c.Events = append([]EventState(nil), s.Events...)
	c.Waiting = append([]QueuedVMState(nil), s.Waiting...)
	c.DownCount = append([]int(nil), s.DownCount...)
	c.Counters.Windows = append([]WindowStats(nil), s.Counters.Windows...)
	c.Windower = s.Windower.clone()
	c.Lat.Vals = append([]float64(nil), s.Lat.Vals...)
	c.Rep.Vals = append([]float64(nil), s.Rep.Vals...)
	for t := range c.TierLat {
		c.TierLat[t].Vals = append([]float64(nil), s.TierLat[t].Vals...)
	}
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
		FailedLinks:  st.Fabric.FailedLinks(),
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
// State.Replay — exact brick shares, exact links — then hardware
// failures are applied, then the scheduler's carried state is replayed
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
	for _, ref := range snap.FailedLinks {
		l, err := st.Fabric.LinkByRef(ref)
		if err != nil {
			return nil, err
		}
		st.Fabric.SetLinkFailed(l, true)
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
	if len(cl.FailedBoxes()) > 0 || len(f.FailedLinks()) > 0 {
		return fmt.Errorf("sim: restore target not pristine: hardware failures present")
	}
	return nil
}

// capture assembles the full Snapshot at the current event boundary:
// the observer half here, the position half by the event core. It only
// reads — the run can continue unperturbed afterwards.
func (sr *streamRun) capture() (*Snapshot, error) {
	snapper, ok := sr.s.(workload.StreamSnapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: stream %q does not support snapshots", sr.s.Name())
	}
	snap := &Snapshot{
		T:         sr.cfg.Snapshot.At,
		WaitSum:   sr.waitSum,
		Counters:  *sr.res,
		Windower:  WindowerState(*sr.wind).clone(),
		Lat:       sr.lat.state(),
		Rep:       sr.rep.state(),
		Stream:    snapper.StreamState(),
		PendingVM: sr.pending,
		More:      sr.more,
	}
	snap.Counters.Windows = nil // res.Windows only materializes at finish
	for t := range sr.tlat {
		snap.TierLat[t] = sr.tlat[t].state()
	}
	return snap, sr.c.capture(snap)
}

// WarmStream runs the stream up to cfg.Snapshot.At (required) and returns
// the snapshot captured there, leaving the runner's state warm. The
// warm configuration's stop bounds (MaxArrivals, Duration, Warmup,
// Window) must equal the resume configuration's for a resumed run to be
// bit-identical to an uninterrupted one — the experiment ladders pass
// the same StreamConfig to both. It fails if the run ends before the
// snapshot point.
func (r *Runner) WarmStream(s workload.Stream, cfg StreamConfig) (*Snapshot, error) {
	if cfg.Snapshot.At <= 0 {
		return nil, fmt.Errorf("sim: WarmStream requires Snapshot.At")
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
// (it is repositioned by replay), and cfg must carry the same stop
// bounds as the warm run's for bit-identical equivalence (Warmup,
// Window and the reservoir parameters are inherited from the snapshot).
// It refuses Snapshot.At: a resumed run does not capture again.
//
// Fault-plan linkage follows Snapshot.PlanLen (see eventCore.restore): a
// plan-free snapshot resumed under a plan starts its faults at the
// snapshot point.
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
	if err := sr.c.restore(snap); err != nil {
		return nil, err
	}
	if err := snap.checkObserver(); err != nil {
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
	sr.lat = restoreReservoir(snap.Lat)
	sr.rep = restoreReservoir(snap.Rep)
	for t := range sr.tlat {
		sr.tlat[t] = restoreReservoir(snap.TierLat[t])
	}
	wind := windower(snap.Windower.clone())
	sr.wind = &wind
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

// checkObserver rejects an observer half no run could have captured: a
// non-positive window would close windows forever, a reservoir larger
// than its bound (or than reservoirSize) could not have been filled.
func (s *Snapshot) checkObserver() error {
	if s.Windower.Window <= 0 {
		return fmt.Errorf("sim: snapshot window must be positive, got %d", s.Windower.Window)
	}
	for _, rs := range append([]ReservoirState{s.Lat, s.Rep}, s.TierLat[:]...) {
		if rs.K < 0 || rs.K > reservoirSize || len(rs.Vals) > rs.K {
			return fmt.Errorf("sim: snapshot reservoir holds %d of %d samples, bound %d", len(rs.Vals), rs.K, reservoirSize)
		}
	}
	return nil
}

// clone returns a copy sharing nothing with ws.
func (ws WindowerState) clone() WindowerState {
	ws.Windows = append([]WindowStats(nil), ws.Windows...)
	return ws
}

// state captures the reservoir's position.
func (r *reservoir) state() ReservoirState {
	return ReservoirState{
		K: r.k, N: r.n, Seed: r.seed, Draws: r.src.Draws(),
		Vals: append([]float64(nil), r.vals...),
	}
}

// restoreReservoir rebuilds a reservoir from its captured position: the
// buffer is copied and the sampling RNG replayed to its exact draw.
func restoreReservoir(st ReservoirState) *reservoir {
	r := newReservoir(st.K, st.Seed)
	r.src.Replay(st.Seed, st.Draws)
	r.n = st.N
	r.vals = append(r.vals, st.Vals...)
	return r
}
