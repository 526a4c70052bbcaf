package sched

import (
	"fmt"

	"risa/internal/network"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// SchedulerState is the serializable semantic state of a scheduler: the
// round-robin rack cursor and the per-rack, per-resource next-fit box
// cursors that persist across decisions. Purely diagnostic counters
// (decision statistics) are deliberately excluded — they never influence
// a placement. Stateless schedulers have a zero SchedulerState.
type SchedulerState struct {
	Cursor     int
	BoxCursors [][units.NumResources]int
}

// StatefulScheduler is implemented by schedulers whose decisions depend
// on state carried across Schedule calls. Snapshot capture records that
// state and restore replays it, so a restored scheduler makes exactly
// the decisions the original would have made next.
type StatefulScheduler interface {
	// SchedulerState captures the decision-relevant carried state.
	SchedulerState() SchedulerState
	// RestoreSchedulerState replays previously captured state.
	RestoreSchedulerState(st SchedulerState)
}

// CursorState returns a copy of the scratch's persistent next-fit
// cursors, for snapshot capture.
func (s *Scratch) CursorState() [][units.NumResources]int {
	if len(s.cursors) == 0 {
		return nil
	}
	out := make([][units.NumResources]int, len(s.cursors))
	copy(out, s.cursors)
	return out
}

// RestoreCursorState replaces the scratch's persistent next-fit cursors
// with a captured copy.
func (s *Scratch) RestoreCursorState(cur [][units.NumResources]int) {
	s.cursors = s.cursors[:0]
	s.cursors = append(s.cursors, cur...)
}

// PlacementState is the serializable form of one compute placement: the
// box's rack-major global index (its position in Cluster.Boxes) and the
// exact per-brick shares. Box is -1 for the zero placement (resource not
// requested).
type PlacementState struct {
	Box    int
	Shares []topology.BrickShare
	Total  units.Amount
}

// FlowState is the serializable form of one optical flow: the exact
// links it reserves bandwidth on, by structural address. Present
// distinguishes a real flow from an absent one (gob cannot round-trip
// that through a nil pointer inside a slice element).
type FlowState struct {
	Present             bool
	BW                  units.Bandwidth
	Links               []network.LinkRef
	InterRack, InterPod bool
}

// AssignmentState is a VM's exact holdings as plain data: its boxes, its
// brick shares and the links its two circuits ride. It is the one format
// for them — a snapshot stores one per live VM, and a preemption attempt
// or a migration parks a released VM's holdings in one until it either
// commits or puts them back. Hold writes it; Replay puts it back.
type AssignmentState struct {
	VM            workload.VM
	CPU, RAM, STO PlacementState
	CPURAM        FlowState
	RAMSTO        FlowState
}

// Hold records a's exact holdings into h, reusing h's share and link
// buffers: a zero h allocates them, one held before allocates nothing
// once they have grown. It only reads the state.
func (s *State) Hold(a *Assignment, h *AssignmentState) {
	bpr := s.Cluster.Config().BoxesPerRack()
	h.VM = a.VM
	for _, r := range units.Resources() {
		p, ps := placementOf(a, r), heldOf(h, r)
		ps.Box, ps.Total, ps.Shares = -1, 0, ps.Shares[:0]
		if !p.IsZero() {
			ps.Box, ps.Total = p.Box.Rack()*bpr+p.Box.Index(), p.Total
			ps.Shares = append(ps.Shares, p.Shares...)
		}
	}
	s.holdCircuit(&h.CPURAM, a.CPURAMFlow)
	s.holdCircuit(&h.RAMSTO, a.RAMSTOFlow)
}

// holdCircuit records one circuit (the zero FlowState, buffer kept, for
// an absent one). A buffer too small for the path is replaced at its full
// length, one allocation rather than one per growth.
func (s *State) holdCircuit(fs *FlowState, fl *network.Flow) {
	*fs = FlowState{Links: fs.Links[:0]}
	if fl == nil {
		return
	}
	fs.Present, fs.BW, fs.InterRack, fs.InterPod = true, fl.BW(), fl.InterRack(), fl.InterPod()
	links := fl.Links()
	if cap(fs.Links) < len(links) {
		fs.Links = make([]network.LinkRef, 0, len(links))
	}
	for _, l := range links {
		fs.Links = append(fs.Links, s.Fabric.Ref(l))
	}
}

// Replay puts held holdings back: every placement is re-carved with its
// exact brick shares (Cluster.RestorePlacement) into the record's own
// share buffers, and every circuit reserved on its exact links
// (Fabric.Replay) into the record's own flow slots. a is a record whose
// holdings ReleaseVMKeep returned — a preemption victim, a VM whose
// migration was refused — or nil for a fresh record from the pool, as a
// snapshot restore needs; the record is returned. The named boxes and
// links must be healthy and hold the room (see the two primitives for
// what is refused). On error nothing stays re-carved: a kept record is
// left empty, a fresh one goes back to the pool.
func (s *State) Replay(a *Assignment, h *AssignmentState) (*Assignment, error) {
	fresh := a == nil
	if fresh {
		a = s.getAssignment(h.VM)
	}
	if err := s.replay(a, h); err != nil {
		if fresh {
			s.ReleaseVM(a)
		} else {
			s.ReleaseVMKeep(a)
		}
		return nil, err
	}
	return a, nil
}

func (s *State) replay(a *Assignment, h *AssignmentState) error {
	boxes := s.Cluster.Boxes()
	for _, r := range units.Resources() {
		ps := heldOf(h, r)
		if ps.Box < 0 {
			continue
		}
		if ps.Box >= len(boxes) {
			return fmt.Errorf("sched: VM %d %v: box index %d out of range", h.VM.ID, r, ps.Box)
		}
		dst := placementOf(a, r)
		p, err := s.Cluster.RestorePlacement(boxes[ps.Box], ps.Shares, dst.Shares[:0])
		if err != nil {
			return fmt.Errorf("sched: VM %d %v: %w", h.VM.ID, r, err)
		}
		*dst = p
	}
	if err := s.replayCircuit(&a.CPURAMFlow, &a.flows[0], &h.CPURAM); err != nil {
		return fmt.Errorf("sched: VM %d CPU-RAM flow: %w", h.VM.ID, err)
	}
	if err := s.replayCircuit(&a.RAMSTOFlow, &a.flows[1], &h.RAMSTO); err != nil {
		return fmt.Errorf("sched: VM %d RAM-STO flow: %w", h.VM.ID, err)
	}
	return nil
}

// replayCircuit reserves one held circuit into slot, the record's own
// storage for it, and points *ptr there (nothing for an absent circuit).
func (s *State) replayCircuit(ptr **network.Flow, slot *network.Flow, fs *FlowState) error {
	if !fs.Present {
		return nil
	}
	if err := s.Fabric.Replay(slot, fs.BW, fs.Links, fs.InterRack, fs.InterPod); err != nil {
		return err
	}
	*ptr = slot
	return nil
}

// placementOf maps a resource to its placement field on the assignment.
func placementOf(a *Assignment, r units.Resource) *topology.Placement {
	switch r {
	case units.CPU:
		return &a.CPU
	case units.RAM:
		return &a.RAM
	default:
		return &a.STO
	}
}

// heldOf maps a resource to its placement field on the held state.
func heldOf(h *AssignmentState, r units.Resource) *PlacementState {
	switch r {
	case units.CPU:
		return &h.CPU
	case units.RAM:
		return &h.RAM
	default:
		return &h.STO
	}
}
