// Package sim is the discrete-event simulator that drives one scheduling
// algorithm over one workload against one datacenter state.
//
// Events are VM arrivals (from a trace, a stream, or one at a time over
// the Driver), departures (queued when a VM is placed) and fault-plan
// events (hardware failing and recovering, see Faults and DESIGN.md §10).
// The fault surface — plan, eviction, retry queue, preemption — is set
// once, on Config.Faults, and every run of the Runner plays under it. One
// unexported event core (core.go) owns the event
// heap, the clock, the retry queue, eviction and preemption, and states
// the ordering rules — faults before departures before arrivals at one
// instant, atomic same-instant fault bursts, tier-ordered queue drain —
// exactly once. One loop (stream.go) steps it for every trace and stream
// run, under one of two settings; the Driver steps it on its own:
//
//   - Runner.Run plays a finite trace through the loop's finite setting:
//     it runs to an empty heap, departures and faults metered, and its
//     accounting piece integrates the time-weighted signals the paper
//     reports: compute utilization per resource (§5.1's
//     64.66/65.11/31.72 %), intra- and inter-rack network utilization
//     (Figure 8), optical power (Figure 9) and CPU–RAM latency
//     (Figure 10).
//   - Runner.RunStream plays an open-ended stream through the loop's
//     stream setting: it stops at the last arrival and reports
//     warmup-excluded windowed steady-state metrics; WarmStream plays one
//     up to a Snapshot and stops, ResumeStream continues from one.
//   - Driver steps the core one externally supplied event at a time and
//     observes nothing; it is what the placement daemon embeds.
//
// One simulated time unit is modeled as one second for energy accounting;
// the paper leaves the unit unspecified and only relative comparisons
// matter.
package sim

import (
	"fmt"
	"time"

	"risa/internal/faults"
	"risa/internal/optics"
	"risa/internal/power"
	"risa/internal/sched"
	"risa/internal/units"
)

// SecondsPerTimeUnit converts trace time units into seconds for energy
// integration.
const SecondsPerTimeUnit = 1.0

// Result aggregates everything one run produces. All percentages are in
// [0, 100].
type Result struct {
	Algorithm string
	Workload  string

	Scheduled int
	Dropped   int

	// InterRack counts assignments spanning racks (Figures 5 and 7);
	// InterPod counts assignments spanning pods (three-tier extension
	// only, always 0 on the paper's fabric).
	InterRack    int
	InterRackPct float64
	InterPod     int

	// Time-averaged and peak compute utilization per resource, percent.
	AvgUtil  [units.NumResources]float64
	PeakUtil [units.NumResources]float64

	// Network utilization, percent (Figure 8).
	AvgIntraUtil, PeakIntraUtil float64
	AvgInterUtil, PeakInterUtil float64

	// Mean CPU-RAM round-trip latency over scheduled VMs (Figure 10).
	MeanCPURAMLatency time.Duration

	// Optical power (Figure 9) and integrated energy.
	PeakPowerW float64
	AvgPowerW  float64
	EnergyJ    float64
	// Eq1EnergyJ is the per-VM Equation 1 energy summed over completed
	// VMs (switch setup + trimming over the actual lifetime), an
	// alternative view of the same physics.
	Eq1EnergyJ float64

	// SchedulingTime is the wall-clock time spent inside Schedule calls
	// (Figures 11 and 12).
	SchedulingTime time.Duration

	// Makespan is the simulated time of the last event.
	Makespan int64

	// Retry-queue statistics (see Faults.Retry). Enqueued counts
	// arrivals that found no capacity and waited; RetrySucceeded counts
	// those eventually placed; MeanWait is their average queue time in
	// time units. VMs still waiting at the end of the run count as
	// Dropped.
	Enqueued       int
	RetrySucceeded int
	MeanWait       float64

	// Fault statistics (see Faults.Plan/Evict). Displaced counts VMs
	// evicted off failed hardware; Recovered those re-placed elsewhere
	// (immediately, or later from the retry queue — never a second
	// acceptance in Scheduled); DisplacedLost those gone for good. All
	// zero when eviction is off — VMs then ride out the outage in place.
	Displaced     int
	Recovered     int
	DisplacedLost int
}

// Config parameterizes every run of a Runner.
type Config struct {
	// Power model; nil uses optics defaults.
	PowerModel *power.Model
	// Faults is the fault surface every run of the Runner plays under:
	// Run, RunStream, WarmStream and ResumeStream alike.
	Faults Faults
}

// Faults is a run's fault surface: a fault plan merged into the event
// order, displaced-VM recovery, the retry queue and preemption. Each run
// copies it by value into its own event core.
type Faults struct {
	// Plan is an optional fault plan merged into the event order: each
	// event toggles box failure over its scope (box or rack) at its
	// timestamp, before the departures of the same instant.
	Plan *faults.Plan
	// Evict, with Plan, activates displaced-VM recovery: when hardware
	// fails, VMs resident on it are evicted and re-placed through the
	// scheduler's own policy, as a fresh arrival would be; a VM that
	// cannot be re-placed is lost — or parks on the retry queue when Retry
	// is also set. Without Evict, resident VMs ride out the outage in place
	// (their circuits are established) and only new arrivals route around
	// the hole.
	Evict bool
	// Retry turns the paper's drop-on-failure semantics into a wait queue
	// (an extension beyond the paper): arrivals that cannot be placed
	// wait, and every departure retries the queue head-first. A waiting
	// VM's lifetime starts when it is placed. The queue orders by tier,
	// then admission sequence, which is plain FIFO on untiered workloads.
	Retry bool
	// Preempt lets a high-priority arrival that fails placement displace
	// strictly-lower-tier victims (sched.PreemptScratch.Preempt), the
	// victims entering the retry queue (hence Preempt requires Retry).
	// Stream runs only: Run refuses it, because a victim is released
	// without the observer's releasing hook, so Run's accounting piece
	// would count the victim's circuits twice once the retry queue
	// re-places it.
	Preempt bool
}

// Runner binds a scheduler and a state and runs traces. It holds
// configuration only — every run builds its own event core — so one
// Runner may serve any number of runs.
type Runner struct {
	st     *sched.State
	sch    sched.Scheduler
	model  *power.Model
	faults Faults
}

// NewRunner builds a Runner. The scheduler must be bound to st.
func NewRunner(st *sched.State, sch sched.Scheduler, cfg Config) (*Runner, error) {
	m := cfg.PowerModel
	if m == nil {
		var err error
		m, err = power.NewModel(optics.DefaultConfig())
		if err != nil {
			return nil, err
		}
	}
	f := cfg.Faults
	if f.Plan != nil {
		if err := f.Plan.Validate(st.Cluster.NumRacks(), st.Cluster.Config().BoxesPerRack()); err != nil {
			return nil, err
		}
	}
	if f.Evict && f.Plan == nil {
		return nil, fmt.Errorf("sim: Faults.Evict requires Faults.Plan")
	}
	if f.Preempt && !f.Retry {
		return nil, fmt.Errorf("sim: Faults.Preempt requires Faults.Retry (victims re-enter through the retry queue)")
	}
	return &Runner{st: st, sch: sch, model: m, faults: f}, nil
}
