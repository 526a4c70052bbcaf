// Optimistic propose support (DESIGN.md §12): the probing consumer of
// RISA's candidate walk (risa.go), used by the concurrent agent pool so
// N agents can compute claims in parallel against a settled cluster
// view.
package core

import (
	"errors"

	"risa/internal/sched"
	"risa/internal/workload"
)

// Compile-time check: the agent pool drives RISA through Propose and
// drops its conclusive failures through DropConclusive.
var _ sched.ConclusiveProposer = (*RISA)(nil)

// Propose implements sched.Proposer: Schedule's candidate walk with the
// shard's racks preferred, each candidate probed read-only (State.Probe:
// hop-by-hop flow feasibility, plus a generation claim on every rack the
// boxes live in) where Schedule would commit it. The walk spills over
// past the shard and ends at the SUPER_RACK candidate, so a false return
// certifies that NO tier had a placement at the settle point — the
// property the agent loop's drop-without-redo path depends on
// (sched.ConclusiveProposer).
//
// The cluster's lazy index tiers must be settled (topology's
// Cluster.Settle) before concurrent Propose calls: NextRackFits and the
// per-rack queries are pure reads only then. The instance's own
// round-robin and next-fit cursors advance on a successful proposal,
// exactly as Schedule advances them — they are per-agent state, not
// shared.
func (r *RISA) Propose(vm workload.VM, shard sched.RackMask) (sched.Proposal, bool) {
	if !vm.Req.NonNegative() || vm.Req.IsZero() {
		return sched.Proposal{}, false
	}
	w := r.newWalk(vm, shard)
	for w.next() || w.superRack() {
		if p, ok := w.probe(); ok {
			return p, true
		}
	}
	return sched.Proposal{}, false
}

// errConclusiveDrop is the shared drop error for conclusively
// unplaceable VMs — a sentinel, so the agent loop's drop path allocates
// nothing per VM.
var errConclusiveDrop = errors.New("core: no placement: intra-rack and SUPER_RACK tiers exhausted at propose time")

// DropConclusive implements sched.ConclusiveProposer: bookkeeping for a
// VM whose cluster-wide, both-tier Propose failure proved it
// unplaceable this round. Counted in Stats.ConclusiveDrops (not
// PoolEmpty or NetGated — attributing those would take exactly the walk
// this path exists to skip).
func (r *RISA) DropConclusive(vm workload.VM) error {
	r.stats.ConclusiveDrops++
	r.stats.Dropped++
	return errConclusiveDrop
}
