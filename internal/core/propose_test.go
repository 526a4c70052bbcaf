package core

import (
	"errors"
	"testing"

	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

func proposeState(t *testing.T) *sched.State {
	t.Helper()
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCommitConflictOnRackChange: a proposal must lose its commit when
// the rack it claims moved after propose time — here because another
// placement landed in it — and the losing VM must still place serially.
func TestCommitConflictOnRackChange(t *testing.T) {
	st := proposeState(t)
	s := New(st)
	st.Cluster.Settle()
	vm := workload.VM{ID: 1, Lifetime: 10, Req: units.Vec(8, 16, 128)}
	p, ok := s.Propose(vm, nil)
	if !ok {
		t.Fatal("fresh cluster must yield a proposal")
	}
	// An interfering serial placement into the proposal's rack bumps its
	// generations (the winner of the round, from the commit loop's view).
	mask := make(sched.RackMask, st.Cluster.NumRacks())
	mask[p.Claims[0].Rack] = true
	st.Cluster.Settle()
	winner, ok := s.Propose(workload.VM{ID: 2, Lifetime: 10, Req: units.Vec(8, 16, 128)}, mask)
	if !ok {
		t.Fatal("winner proposal must fit in the same rack")
	}
	if _, err := st.CommitProposal(winner); err != nil {
		t.Fatalf("winner commit: %v", err)
	}
	if _, err := st.CommitProposal(p); !errors.Is(err, sched.ErrProposalConflict) {
		t.Fatalf("stale commit returned %v, want ErrProposalConflict", err)
	}
	// The loser is redone serially, like the agent loop does.
	if _, err := s.Schedule(vm); err != nil {
		t.Fatalf("serial redo failed: %v", err)
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCommitConflictOnBoxFailure: a fault landing between propose and
// commit must invalidate the claim — the generation check covers
// failure-driven capacity changes, not just competing placements.
func TestCommitConflictOnBoxFailure(t *testing.T) {
	st := proposeState(t)
	s := New(st)
	st.Cluster.Settle()
	vm := workload.VM{ID: 1, Lifetime: 10, Req: units.Vec(8, 16, 128)}
	p, ok := s.Propose(vm, nil)
	if !ok {
		t.Fatal("fresh cluster must yield a proposal")
	}
	for _, b := range st.Cluster.Rack(p.Claims[0].Rack).Boxes() {
		st.Cluster.SetBoxFailed(b, true)
	}
	if _, err := st.CommitProposal(p); !errors.Is(err, sched.ErrProposalConflict) {
		t.Fatalf("commit into a failed rack returned %v, want ErrProposalConflict", err)
	}
}

// TestProposeRespectsShard: while the shard has capacity, a proposal
// claims only shard racks, whatever the cursor position — the
// low-conflict fast path the contiguous shards exist for.
func TestProposeRespectsShard(t *testing.T) {
	st := proposeState(t)
	s := New(st)
	st.Cluster.Settle()
	mask := make(sched.RackMask, st.Cluster.NumRacks())
	mask[3], mask[4] = true, true
	for i := 0; i < 40; i++ {
		p, ok := s.Propose(workload.VM{ID: i, Lifetime: 10, Req: units.Vec(4, 8, 128)}, mask)
		if !ok {
			t.Fatalf("VM %d: shard with free racks must yield a proposal", i)
		}
		if !mask.Allows(p.Claims[0].Rack) {
			t.Fatalf("VM %d: proposal claims rack %d outside the non-exhausted shard", i, p.Claims[0].Rack)
		}
		if _, err := st.CommitProposal(p); err != nil {
			t.Fatalf("VM %d: commit: %v", i, err)
		}
		st.Cluster.Settle()
	}
}

// TestProposeSpillsOverWhenShardExhausted: a VM too large for any shard
// rack must still be proposed — into a foreign rack — and only return
// ok=false when no rack in the whole cluster can take it. The spillover
// is what makes ok=false a cluster-wide certificate (ConclusiveProposer)
// rather than a shard-local miss.
func TestProposeSpillsOverWhenShardExhausted(t *testing.T) {
	st := proposeState(t)
	s := New(st)
	st.Cluster.Settle()
	mask := make(sched.RackMask, st.Cluster.NumRacks())
	mask[0] = true
	// Saturate the shard's CPU: each box holds 8 bricks x 16 units.
	for i := 0; ; i++ {
		p, ok := s.Propose(workload.VM{ID: i, Lifetime: 10, Req: units.Vec(128, 1, 1)}, mask)
		if !ok {
			t.Fatal("cluster with free racks must always yield a proposal")
		}
		if _, err := st.CommitProposal(p); err != nil {
			t.Fatalf("VM %d: commit: %v", i, err)
		}
		st.Cluster.Settle()
		if !mask.Allows(p.Claims[0].Rack) {
			if free, _ := st.Cluster.Rack(0).MaxFree(units.CPU); free >= 128 {
				t.Fatalf("VM %d spilled to rack %d while shard rack 0 still fits it", i, p.Claims[0].Rack)
			}
			break // shard exhausted, spillover engaged: the behavior under test
		}
		if i > 1000 {
			t.Fatal("spillover never engaged")
		}
	}
}

// TestProposeSuperRackMatchesSchedule: a VM no single rack can hold
// must still be proposed — through the read-only SUPER_RACK tier — and
// its commit must land box-for-box where the serial Schedule would have
// placed it, with a claim on every distinct rack the placement spans.
func TestProposeSuperRackMatchesSchedule(t *testing.T) {
	stA, stB := proposeState(t), proposeState(t)
	sa, sb := New(stA), New(stB)
	stA.Cluster.Settle()
	// A request no single box can hold (a component is capped by the
	// biggest box), pushing past the intra-rack tier into SUPER_RACK.
	free, _ := stA.Cluster.Rack(0).MaxFree(units.CPU)
	vm := workload.VM{ID: 1, Lifetime: 10, Req: units.Vec(free+1, 16, 128)}
	p, ok := sa.Propose(vm, nil)
	sig := func(a *sched.Assignment) string {
		return a.CPU.Box.String() + "/" + a.RAM.Box.String() + "/" + a.STO.Box.String()
	}
	aB, errB := sb.Schedule(vm)
	if !ok {
		// Conclusive certificate: the serial path must drop it too.
		if errB == nil {
			t.Fatalf("Propose declined conclusively but Schedule placed %s", sig(aB))
		}
		return
	}
	if p.NClaims < 2 {
		t.Fatalf("multi-rack proposal carries %d claims, want >= 2", p.NClaims)
	}
	aA, errA := stA.CommitProposal(p)
	if errA != nil {
		t.Fatalf("conflict-free super-rack commit failed: %v", errA)
	}
	if errB != nil {
		t.Fatalf("serial replay dropped the VM the proposal placed: %v", errB)
	}
	if sig(aA) != sig(aB) {
		t.Fatalf("super-rack commit placed %s, serial replay %s", sig(aA), sig(aB))
	}
}

// TestDropConclusive: for a VM nothing in the cluster can hold, Propose
// must return a conclusive false — verified against a full serial
// Schedule on identical state — and DropConclusive must account the
// drop without touching cluster state.
func TestDropConclusive(t *testing.T) {
	stA, stB := proposeState(t), proposeState(t)
	sa, sb := New(stA), New(stB)
	stA.Cluster.Settle()
	// Larger than the whole cluster's CPU: no tier can place it.
	total := stA.Cluster.TotalFree(units.CPU)
	vm := workload.VM{ID: 1, Lifetime: 10, Req: units.Vec(total+1, 16, 128)}
	if _, ok := sa.Propose(vm, nil); ok {
		t.Fatal("impossible VM yielded a proposal")
	}
	if _, err := sb.Schedule(vm); err == nil {
		t.Fatal("oracle violated: serial Schedule placed the VM Propose certified unplaceable")
	}
	if err := sa.DropConclusive(vm); err == nil {
		t.Fatal("DropConclusive returned nil")
	}
	got := sa.Stats()
	if got.ConclusiveDrops != 1 || got.Dropped != 1 {
		t.Errorf("ConclusiveDrops = %d, Dropped = %d, want 1, 1", got.ConclusiveDrops, got.Dropped)
	}
	if err := stA.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
