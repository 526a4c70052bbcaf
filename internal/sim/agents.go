// Concurrent allocation agents (DESIGN.md §12): N agents, each holding
// its own Proposer instance of the run's scheduler, propose placements
// in parallel against a settled read-only view of the cluster; a
// coordinator commits the proposals serially in arrival order,
// validating each against the per-rack generation counters. Losers are
// redone serially — through the full algorithm after a commit conflict,
// or entering at the fallback tier directly when a cluster-wide Propose
// already certified the intra-rack tier empty (ConclusiveProposer) —
// and only a failed redo touches the retry queue, under the VM's
// original arrival sequence, so queue order never depends on scheduling
// interleavings.
//
// The stream loop (streamRun.loop) stages consecutive arrivals into a
// round (at most roundPerAgent×Agents of them); any heap event — departure
// or fault — flushes the round first, because its arrivals precede that
// event in simulated time. Determinism follows
// from three fixed orders: VMs map to agents by arrival sequence, each
// agent's proposals depend only on its own deterministic subsequence,
// and commits replay in arrival order.
package sim

import (
	"fmt"
	"time"

	"risa/internal/sched"
	"risa/internal/workload"
)

// roundPerAgent sizes a propose round: 4×Agents consecutive arrivals
// amortize the propose barrier while still tracking capacity closely.
const roundPerAgent = 4

// batchItem is one arrival staged into a propose round, plus the slot
// its agent writes the proposal into — distinct slots per item, so the
// round needs no locks.
type batchItem struct {
	vm       workload.VM
	t        int64
	seq      int // admission sequence: picks the agent and the queue slot
	measured bool
	prop     sched.Proposal
	ok       bool
}

// agentPool is a fixed set of worker goroutines, one per agent, kept
// alive for the whole run so propose rounds allocate nothing. Each agent
// owns a Proposer instance (private cursor state) and a contiguous shard
// of the rack space it proposes into; shards are disjoint, so two agents
// in one round never claim the same rack.
type agentPool struct {
	n      int
	round  int
	props  []sched.Proposer
	shards []sched.RackMask
	batch  []batchItem // the round being proposed, set by propose()
	work   []chan int  // per-agent: batch length to process
	done   chan struct{}
	// busy[i] is agent i's measured propose time for the CURRENT round,
	// written by the worker before it reports the barrier (the done
	// channel orders the write before the coordinator's read). The
	// slowest agent's time is the round's critical path.
	busy []time.Duration
	// conclusive, when non-nil, is the runner's scheduler as a
	// ConclusiveProposer: a failed proposal certifies that no placement
	// existed, and the VM drops (or re-queues) with no serial redo.
	conclusive sched.ConclusiveProposer
}

// newAgentPool builds the pool for the runner's scheduler: per-agent
// instances constructed through the sched.New registry, contiguous rack
// shards, and the worker goroutines parked on their channels. It errors
// when the scheduler is not registered or does not implement Propose.
func (r *Runner) newAgentPool(n int) (*agentPool, error) {
	numRacks := r.st.Cluster.NumRacks()
	per := (numRacks + n - 1) / n
	p := &agentPool{n: n, round: roundPerAgent * n, done: make(chan struct{}, n), busy: make([]time.Duration, n)}
	p.conclusive, _ = r.sch.(sched.ConclusiveProposer)
	for i := 0; i < n; i++ {
		s, err := sched.New(r.sch.Name(), r.st)
		if err != nil {
			return nil, fmt.Errorf("sim: agent pool: %w", err)
		}
		prop, ok := s.(sched.Proposer)
		if !ok {
			return nil, fmt.Errorf("sim: scheduler %q does not support concurrent agents (no Propose)", r.sch.Name())
		}
		mask := make(sched.RackMask, numRacks)
		lo, hi := i*per, (i+1)*per
		if hi > numRacks {
			hi = numRacks
		}
		for ri := lo; ri < hi; ri++ {
			mask[ri] = true
		}
		p.props = append(p.props, prop)
		p.shards = append(p.shards, mask)
		p.work = append(p.work, make(chan int, 1))
	}
	for i := 0; i < n; i++ {
		go p.worker(i)
	}
	return p, nil
}

// worker is one agent's goroutine: per round it proposes every batch
// item assigned to this agent (arrival sequence mod pool size) into the
// item's own slot, then reports the barrier.
func (p *agentPool) worker(i int) {
	for count := range p.work[i] {
		b0 := time.Now()
		for j := 0; j < count; j++ {
			it := &p.batch[j]
			if it.seq%p.n != i {
				continue
			}
			it.prop, it.ok = p.props[i].Propose(it.vm, p.shards[i])
		}
		p.busy[i] = time.Since(b0)
		p.done <- struct{}{}
	}
}

// propose runs one round: every agent proposes its items concurrently,
// and the call returns when all agents hit the barrier. The caller must
// have settled the cluster's lazy indexes first and must not mutate
// shared state until propose returns. The returned duration is the
// round's critical path — the slowest agent's measured propose time,
// what the phase costs on hardware with a core per agent. (Workers do
// not yield inside a round, so each measurement is the agent's own work
// even when fewer cores timeslice the pool; the host's elapsed time,
// whatever the core count, stays in WallTime.)
func (p *agentPool) propose(batch []batchItem) time.Duration {
	p.batch = batch
	for i := range p.work {
		p.work[i] <- len(batch)
	}
	for range p.work {
		<-p.done
	}
	var crit time.Duration
	for _, d := range p.busy {
		if d > crit {
			crit = d
		}
	}
	return crit
}

// stop retires the worker goroutines.
func (p *agentPool) stop() {
	for i := range p.work {
		close(p.work[i])
	}
}

// flush proposes and commits one staged round at the current instant
// (the last staged arrival's time) and returns the emptied round. It is
// the serial decision swapped for propose round + commit: every outcome
// settles through the event core exactly like a serial one, a failed
// redo re-queuing under the VM's ORIGINAL arrival sequence — a displaced
// VM evicted meanwhile may hold a later sequence and must stay behind it.
//
// SchedulingTime in agent mode accounts the scheduling CRITICAL PATH:
// settling the lazy index tiers so every read the agents perform is a
// pure read (topology.Cluster.Settle), the slowest agent's propose time,
// and the serial commit/redo section — the cost the round imposes on
// hardware with a core per agent, and the figure scheduler throughput
// comparisons should use. WallTime stays the host's observed truth (see
// DESIGN.md §12).
func (sr *streamRun) flush(pool *agentPool, batch []batchItem) []batchItem {
	c, res := sr.c, sr.res
	s0 := time.Now()
	c.st.Cluster.Settle()
	res.SchedulingTime += time.Since(s0) + pool.propose(batch)
	for i := range batch {
		it := &batch[i]
		sr.measured = it.measured
		var a *sched.Assignment
		var err error
		redo := true
		s2 := time.Now()
		switch {
		case it.ok:
			if a, err = c.st.CommitProposal(it.prop); err == nil {
				res.AgentCommits++
				redo = false
			} else {
				// Generation moved, or joint flow allocation failed at
				// unchanged generations: either way the claim is stale and
				// the VM falls through to the serial redo.
				res.AgentConflicts++
			}
		case pool.conclusive != nil:
			// The failed proposal covered both placement tiers at the
			// round's settle point, and capacity has only shrunk since —
			// nothing can have opened up, so the VM needs no serial redo.
			err = pool.conclusive.DropConclusive(it.vm)
			redo = false
		}
		res.SchedulingTime += time.Since(s2)
		if redo {
			a, err = c.decide(it.vm, false)
		}
		c.settle(QueuedVMState{VM: it.vm, Seq: it.seq}, a, err, it.t)
		if sr.obs != nil {
			sr.sample(true) // an observing stream gets feedback per commit
		}
	}
	sr.sample(false)
	return batch[:0]
}
