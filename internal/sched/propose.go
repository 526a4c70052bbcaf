// Optimistic propose/commit: the concurrency vocabulary the agent pool
// (sim's Concurrency.Agents) drives. N agents each hold a Proposer and
// compute single-rack placement claims in parallel against a settled,
// read-only view of the state; a coordinator then commits the claims
// serially in arrival order, validating each against the per-rack
// generation counters (topology.Rack.Gen, network.Fabric.RackGen). A
// claim whose rack moved since propose time loses with
// ErrProposalConflict and is redone serially. See DESIGN.md §12.
package sched

import (
	"errors"

	"risa/internal/network"
	"risa/internal/units"
	"risa/internal/workload"
)

// ErrProposalConflict reports that a proposal failed its generation
// check at commit time: another commit (or a fault event) mutated the
// proposal's rack between propose and commit. Conflicts are an expected
// outcome of optimistic concurrency, not a fault — the loser's VM is
// re-placed serially, never dropped on account of the conflict.
var ErrProposalConflict = errors.New("sched: proposal conflict (rack state changed since propose)")

// RackClaim pins one rack's generation counters as observed at propose
// time; a commit is valid only while every claimed rack still carries
// the observed generations.
type RackClaim struct {
	// Rack is the rack index the claim covers.
	Rack int
	// CompGen is the rack's compute generation at propose time.
	CompGen uint64
	// NetGen is the rack's network generation at propose time.
	NetGen uint64
}

// Proposal is one agent's optimistic placement claim: a fully chosen
// placement plus the generations under which it was computed. Proposals
// are plain values — computing and committing them allocates nothing
// beyond what AllocateVM's pooled transaction does.
type Proposal struct {
	// VM is the request the proposal places.
	VM workload.VM
	// Boxes is the chosen box per resource (nil for zero-request
	// resources).
	Boxes BoxTriple
	// Policy picks links when the commit reserves the flows.
	Policy network.Policy
	// Claims pins every distinct rack the placement touches — a single
	// entry for an intra-rack claim, up to three when a fallback-tier
	// claim spans racks. Only the first NClaims entries are meaningful.
	Claims [3]RackClaim
	// NClaims is the number of valid entries in Claims.
	NClaims int
}

// Probe is the read-only acceptor of a placement candidate, the
// counterpart of AllocateVM's committing one: every Proposer enumerates
// candidates with the walk its Schedule uses and hands each to Probe
// where Schedule hands it to AllocateVM. It checks both optical flows
// hop by hop (Fabric.FlowFeasible — the fit of each box was the walk's
// own test) and, when they pass, returns the proposal with one claim per
// distinct rack the boxes live in. Pure reads against a settled cluster.
func (s *State) Probe(vm workload.VM, boxes BoxTriple, policy network.Policy) (Proposal, bool) {
	cfg := s.Units()
	cpu, ram, sto := boxes[units.CPU], boxes[units.RAM], boxes[units.Storage]
	if cpu != nil && ram != nil && !s.Fabric.FlowFeasible(cpu, ram, cfg.CPURAMDemand(vm.Req), policy) {
		return Proposal{}, false
	}
	if ram != nil && sto != nil && !s.Fabric.FlowFeasible(ram, sto, cfg.RAMSTODemand(vm.Req), policy) {
		return Proposal{}, false
	}
	p := Proposal{VM: vm, Boxes: boxes, Policy: policy}
claim:
	for _, b := range boxes {
		if b == nil {
			continue
		}
		rack := b.Rack()
		for _, c := range p.Claims[:p.NClaims] {
			if c.Rack == rack {
				continue claim
			}
		}
		p.Claims[p.NClaims] = RackClaim{Rack: rack, CompGen: s.Cluster.RackGen(rack), NetGen: s.Fabric.RackGen(rack)}
		p.NClaims++
	}
	return p, true
}

// Proposer is implemented by schedulers that can compute placement
// claims against a read-only view of the state — the contract an agent
// pool instance must satisfy. Propose must not mutate the Cluster or
// Fabric (per-instance scratch state such as cursors is fine), so that
// N agents may propose concurrently between commits.
type Proposer interface {
	Scheduler
	// Propose computes a single-rack placement claim for vm, preferring
	// the racks shard allows. ok is false when the scheduler found no
	// single-rack placement — the caller then schedules the VM serially
	// (see ConclusiveProposer for how much of that redo can be skipped).
	Propose(vm workload.VM, shard RackMask) (Proposal, bool)
}

// ConclusiveProposer is implemented by Proposers whose Propose checks
// EVERY placement tier read-only before giving up — the intra-rack walk
// spills over past the shard to every rack, and the fallback tier's
// choice is feasibility-checked too — so a false return certifies that
// no placement passed anywhere in the cluster at the settle point of
// the round. The agent loop exploits the certificate: between a round's
// settle and its commits, capacity and bandwidth only shrink (commits
// allocate; departures and repairs both flush the round first), so
// nothing can have become feasible and the VM is dropped —
// or re-queued, with the retry queue on — without any serial redo.
// The certificate is deterministic but approximate in one corner: the
// read-only checks pin the boxes a round-start choice takes, while a
// serial re-walk after intervening commits could pick different boxes
// whose links still fit. Agent mode accepts that divergence the same
// way it accepts commit-order conflicts.
type ConclusiveProposer interface {
	Proposer
	// DropConclusive records a VM that a conclusive Propose failure
	// proved unplaceable — the scheduler-side bookkeeping for a drop
	// that needed no serial redo — and returns the error the drop
	// surfaces to the caller.
	DropConclusive(vm workload.VM) error
}

// CommitProposal validates a proposal's generation counters and, when
// they all still hold, performs the placement through the shared
// AllocateVM transaction. It returns ErrProposalConflict when any
// claimed generation moved since propose time. A commit may also fail
// with an allocation error even at unchanged generations — the
// proposal's flows are feasibility-checked hop-by-hop, not jointly, and
// a multi-rack claim's generations do not cover shared pod uplinks —
// and the caller treats that exactly like a conflict: redo serially.
// AllocateVM re-validates every resource it takes, so a stale claim can
// never corrupt state; the generation check only avoids doomed
// transactions.
func (s *State) CommitProposal(p Proposal) (*Assignment, error) {
	for _, c := range p.Claims[:p.NClaims] {
		if s.Cluster.RackGen(c.Rack) != c.CompGen || s.Fabric.RackGen(c.Rack) != c.NetGen {
			return nil, ErrProposalConflict
		}
	}
	return s.AllocateVM(p.VM, p.Boxes, p.Policy)
}
