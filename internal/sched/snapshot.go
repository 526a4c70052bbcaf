package sched

import (
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

// RestoreAssignment binds already-restored placements to a pooled
// assignment record, the first half of the snapshot replay of one live
// VM. The placements must have been re-carved via
// Cluster.RestorePlacement, so the compute plane already accounts for
// them (their shares are copied into the record's own buffers); the VM's
// circuits follow through RestoreFlow, which replays them into the record
// this call returns.
func (s *State) RestoreAssignment(vm workload.VM, cpu, ram, sto topology.Placement) *Assignment {
	a := s.getAssignment(vm)
	setPlacement(&a.CPU, cpu)
	setPlacement(&a.RAM, ram)
	setPlacement(&a.STO, sto)
	return a
}

// RestoreFlow replays one recorded circuit of a restored assignment —
// RAM–storage when ramsto is set, CPU–RAM otherwise — link for link into
// the record's own slot (see network.Fabric.Replay for what is refused).
// On error nothing is reserved and the record has no such circuit.
func (s *State) RestoreFlow(a *Assignment, ramsto bool, bw units.Bandwidth, refs []network.LinkRef, interRack, interPod bool) error {
	slot, ptr := &a.flows[0], &a.CPURAMFlow
	if ramsto {
		slot, ptr = &a.flows[1], &a.RAMSTOFlow
	}
	if err := s.Fabric.Replay(slot, bw, refs, interRack, interPod); err != nil {
		return err
	}
	*ptr = slot
	return nil
}
