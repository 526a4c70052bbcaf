// Package svc is the placement-as-a-service layer: a crash-tolerant
// daemon core that owns one live simulated datacenter (a sim.Driver)
// and serves placement traffic through a bounded admission queue.
//
// The package separates three concerns:
//
//   - Engine (engine.go, journal.go): the single-writer state machine.
//     Every state-changing operation — place, fail/heal, add-rack,
//     scheduler swap — is appended to an fsync'd write-ahead journal
//     before it is applied, and periodic snapshots (snapshot.gob: a
//     sim.Snapshot from Driver.Snapshot at an event boundary, plus the
//     decision history) bound replay time. After a crash, Open restores
//     the latest snapshot and replays the journal suffix; because every
//     decision is a pure function of the operation sequence, the
//     recovered daemon is bit-identical to one that never crashed.
//
//   - Queue (queue.go): bounded admission with tier-aware backpressure.
//     Service order is strict FIFO (so a queued swap is a barrier:
//     requests admitted before it decide under the old algorithm);
//     tiers matter at overflow, where the lowest-priority queued
//     request is shed to make room for a better one. Expired or
//     abandoned requests are dropped at dequeue, never half-placed.
//
//   - Server (server.go): the HTTP/JSON surface and the worker loop
//     draining the queue through the engine, plus graceful drain on
//     shutdown. POST /place has a hand-written wire codec (wire.go), and
//     its stages are timed into histograms GET /metrics serves
//     (metrics.go).
//
// Backoff (backoff.go) is the capped, seeded-jitter retry delay used by
// clients (cmd/workloadgen) when the daemon sheds them, and
// signals.go is the SIGINT/SIGTERM plumbing shared with cmd/risasim.
package svc

import (
	"fmt"

	"risa/internal/network"
	"risa/internal/topology"
)

// Config fixes the daemon's datacenter shape and genesis scheduler. It
// is echoed into the journal header and every snapshot; Open refuses to
// recover state captured under a different shape.
type Config struct {
	// Topology describes the in-service cluster at genesis. Racks is the
	// number of racks initially serving traffic.
	Topology topology.Config
	// Network describes the optical fabric.
	Network network.Config
	// Spares is the number of spare racks built dark (all boxes failed at
	// genesis, deterministically) beyond Topology.Racks. POST /addrack
	// brings the next spare into service; the cluster's total footprint
	// never changes at runtime, which keeps every index and snapshot
	// shape stable.
	Spares int
	// Algo names the genesis scheduler (a sched registry name). POST
	// /swap changes the live algorithm; the journal remembers.
	Algo string
}

// Validate checks the configuration without building anything.
func (c Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if err := c.Network.Validate(); err != nil {
		return err
	}
	if c.Spares < 0 {
		return fmt.Errorf("svc: negative spare rack count %d", c.Spares)
	}
	if c.Algo == "" {
		return fmt.Errorf("svc: empty genesis algorithm")
	}
	return nil
}

// sameShape reports whether two configs describe the same datacenter
// (the recovery compatibility check). The genesis algorithm is excluded:
// the live algorithm is journaled state, not shape.
func sameShape(a, b Config) bool {
	return a.Topology == b.Topology && a.Network == b.Network && a.Spares == b.Spares
}

// Outcome is one placement decision, the unit of the daemon's placement
// log. It is plain serializable data: box coordinates are global box
// indices (rack*boxesPerRack+box, -1 when the VM requests none of that
// resource), and no field depends on wall-clock time — two runs that
// process the same operations produce byte-identical logs.
type Outcome struct {
	// Seq is the journal sequence number of the operation that produced
	// this decision.
	Seq int64
	// VMID, Tier echo the request.
	VMID int
	Tier int
	// T is the virtual time the decision was made at.
	T int64
	// Accepted reports whether the VM was placed; Reason carries the
	// scheduler's rejection reason otherwise.
	Accepted bool
	Reason   string
	// CPUBox, RAMBox, STOBox are the global box indices of the placement
	// (-1 for resources the VM does not request, and for rejections).
	CPUBox, RAMBox, STOBox int
	// InterRack reports whether the placement spans racks.
	InterRack bool
}

// String renders the outcome as one deterministic placement-log line.
func (o Outcome) String() string {
	if !o.Accepted {
		return fmt.Sprintf("seq=%d vm=%d tier=%d t=%d reject reason=%q",
			o.Seq, o.VMID, o.Tier, o.T, o.Reason)
	}
	return fmt.Sprintf("seq=%d vm=%d tier=%d t=%d place cpu=%d ram=%d sto=%d interrack=%v",
		o.Seq, o.VMID, o.Tier, o.T, o.CPUBox, o.RAMBox, o.STOBox, o.InterRack)
}
