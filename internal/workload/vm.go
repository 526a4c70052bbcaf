// Package workload defines VM requests and the two workload families of
// the RISA paper's evaluation: the synthetic random workload of §5.1 and
// the Azure-like practical workloads of §5.2.
//
// The real 2017 Azure trace is not redistributable; per DESIGN.md §4 the
// Azure-like generator reproduces the paper's own Figure 6 per-subset
// CPU/RAM histograms exactly (the marginals are sampled without
// replacement, so the generated counts match the figure to the VM).
//
// Both families also exist in open-ended form: Stream is a pull-based
// arrival iterator, with the finite Trace adapted by NewTraceStream and
// unbounded generators (SyntheticConfig.NewStream, NewAzureEmpirical)
// optionally rate-steered toward a target cluster occupancy by a
// UtilizationController — the engine behind the steady-state churn
// experiments (DESIGN.md §8).
package workload

import (
	"fmt"
	"sort"

	"risa/internal/units"
)

// NumTiers is the number of priority tiers a VM can carry: tier 0 is the
// highest priority (Protean's "high-priority / never evict" class), tier
// NumTiers-1 the lowest (spot-like, first to be preempted).
const NumTiers = 3

// VM is one virtual-machine request: a compute vector plus its arrival
// time and lifetime in simulation time units.
type VM struct {
	ID       int
	Arrival  int64 // time units since simulation start
	Lifetime int64 // time units the VM stays resident once scheduled
	Req      units.Vector

	// Tier is the VM's priority tier in [0, NumTiers): lower is more
	// important. The zero value (tier 0, the default for every workload
	// that predates tiers) is the highest priority, so untiered runs
	// behave exactly as before — nothing ever preempts tier 0.
	Tier int
}

// Departure returns the time the VM releases its resources.
func (v VM) Departure() int64 { return v.Arrival + v.Lifetime }

// Validate checks a single request for physical sanity.
func (v VM) Validate() error {
	if v.Arrival < 0 {
		return fmt.Errorf("workload: VM %d has negative arrival %d", v.ID, v.Arrival)
	}
	if v.Lifetime <= 0 {
		return fmt.Errorf("workload: VM %d has non-positive lifetime %d", v.ID, v.Lifetime)
	}
	if !v.Req.NonNegative() {
		return fmt.Errorf("workload: VM %d has negative request %v", v.ID, v.Req)
	}
	if v.Req.IsZero() {
		return fmt.Errorf("workload: VM %d requests nothing", v.ID)
	}
	if v.Tier < 0 || v.Tier >= NumTiers {
		return fmt.Errorf("workload: VM %d tier %d outside [0,%d)", v.ID, v.Tier, NumTiers)
	}
	return nil
}

// Trace is an arrival-ordered sequence of VM requests.
type Trace struct {
	Name string
	VMs  []VM
}

// Validate checks every VM and that arrivals are non-decreasing.
func (t *Trace) Validate() error {
	for i, v := range t.VMs {
		if err := v.Validate(); err != nil {
			return err
		}
		if i > 0 && v.Arrival < t.VMs[i-1].Arrival {
			return fmt.Errorf("workload: trace %q not arrival-ordered at index %d", t.Name, i)
		}
	}
	return nil
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.VMs) }

// Makespan returns the latest departure time in the trace, i.e. the time
// by which every VM has left even if all were scheduled.
func (t *Trace) Makespan() int64 {
	var m int64
	for _, v := range t.VMs {
		if d := v.Departure(); d > m {
			m = d
		}
	}
	return m
}

// MeanRequest returns the arithmetic mean request vector (floating point,
// per resource).
func (t *Trace) MeanRequest() [units.NumResources]float64 {
	var sum units.Vector
	for _, v := range t.VMs {
		sum = sum.Add(v.Req)
	}
	var mean [units.NumResources]float64
	if len(t.VMs) == 0 {
		return mean
	}
	for r := range sum {
		mean[r] = float64(sum[r]) / float64(len(t.VMs))
	}
	return mean
}

// ValueCount is one bar of a request-size histogram: how many VMs ask for
// exactly Value of some resource.
type ValueCount struct {
	Value units.Amount
	Count int
}

// Histogram tallies the exact request sizes of one resource across the
// trace, sorted by value. This regenerates the paper's Figure 6.
func (t *Trace) Histogram(r units.Resource) []ValueCount {
	counts := make(map[units.Amount]int)
	for _, v := range t.VMs {
		counts[v.Req[r]]++
	}
	out := make([]ValueCount, 0, len(counts))
	for val, n := range counts {
		out = append(out, ValueCount{Value: val, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}
