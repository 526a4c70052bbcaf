package experiments

import (
	"fmt"
	"strings"

	"risa/internal/sim"
	"risa/internal/workload"
)

// Queueing is an extension beyond the paper: the paper drops a VM the
// moment it cannot be placed; real clouds queue it. This experiment
// overloads a shrunken cluster (9 racks instead of 18) with Azure-3000
// and compares drop-on-failure against a FIFO retry queue under RISA.
type Queueing struct {
	Racks       int
	Drop, Queue *sim.Result
}

// RunQueueing executes both runs.
func (s Setup) RunQueueing() (*Queueing, error) {
	setup := s
	setup.Topology.Racks = 9 // overload: half the capacity
	tr, err := setup.AzureTrace(workload.Azure3000)
	if err != nil {
		return nil, err
	}
	outcomes, err := Engine{}.RunChecked([]Job{
		{Setup: setup, Algorithm: "RISA", Trace: tr},
		{Setup: setup, Algorithm: "RISA", Trace: tr, Sim: sim.Config{Faults: sim.Faults{Retry: true}}},
	})
	if err != nil {
		return nil, err
	}
	return &Queueing{Racks: setup.Topology.Racks, Drop: outcomes[0].Result, Queue: outcomes[1].Result}, nil
}

// Render draws the comparison.
func (q *Queueing) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: FIFO retry queue vs drop-on-failure (RISA, Azure-3000, %d racks)\n", q.Racks)
	fmt.Fprintf(&b, "  %-12s %10s %9s %10s %12s\n", "semantics", "scheduled", "dropped", "enqueued", "mean wait")
	fmt.Fprintf(&b, "  %-12s %10d %9d %10s %12s\n", "drop", q.Drop.Scheduled, q.Drop.Dropped, "-", "-")
	fmt.Fprintf(&b, "  %-12s %10d %9d %10d %9.0f tu\n", "retry-queue",
		q.Queue.Scheduled, q.Queue.Dropped, q.Queue.Enqueued, q.Queue.MeanWait)
	b.WriteString("  Queueing trades drops for wait time: capacity freed by departures\n")
	b.WriteString("  serves the backlog instead of being missed.\n")
	return b.String()
}
