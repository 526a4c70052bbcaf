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
// exactly once. The three entry points are thin drivers of its step
// function that differ only in what they observe and when they stop:
//
//   - Runner.Run plays a finite trace and integrates the time-weighted
//     signals the paper reports: compute utilization per resource (§5.1's
//     64.66/65.11/31.72 %), intra- and inter-rack network utilization
//     (Figure 8), and optical power (Figure 9).
//   - Runner.RunStream plays an open-ended stream and reports
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
	"risa/internal/metrics"
	"risa/internal/network"
	"risa/internal/optics"
	"risa/internal/power"
	"risa/internal/sched"
	"risa/internal/units"
	"risa/internal/workload"
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

	// Samples is the optional time series (see Config.SampleEvery).
	Samples []Sample

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

// Sample is one point of the optional utilization/power time series.
type Sample struct {
	T         int64                       // simulation time
	Util      [units.NumResources]float64 // compute utilization, percent
	IntraUtil float64                     // intra-rack network utilization, percent
	InterUtil float64                     // inter-rack network utilization, percent
	PowerW    float64                     // aggregate optical power
	Resident  int                         // VMs currently placed
}

// Config parameterizes every run of a Runner.
type Config struct {
	// Power model; nil uses optics defaults.
	PowerModel *power.Model
	// SampleEvery, when positive, records one Sample whenever simulated
	// time crosses a multiple of this interval (plus one final sample at
	// makespan). Zero disables the time series.
	SampleEvery int64
	// Faults is the fault surface every run of the Runner plays under:
	// Run, RunStream, WarmStream and ResumeStream alike.
	Faults Faults
}

// Faults is a run's fault surface: a fault plan merged into the event
// order, displaced-VM recovery, the retry queue and preemption. Each run
// copies it by value into its own event core.
type Faults struct {
	// Plan is an optional fault plan merged into the event order: each
	// event toggles box failure over its scope (box, rack or pod) at its
	// timestamp, before the departures of the same instant.
	Plan *faults.Plan
	// Evict, with Plan, activates displaced-VM recovery: when hardware
	// fails, VMs resident on it are evicted and re-placed through the
	// scheduler's own policy (core.Displace); a VM that cannot be
	// re-placed is lost — or parks on the retry queue when Retry is also
	// set. Without Evict, resident VMs ride out the outage in place
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
	// strictly-lower-tier victims via core.Preempt, the victims entering
	// the retry queue (hence Preempt requires Retry). Stream runs only:
	// Run refuses it, because a victim is released without the observer's
	// releasing hook, so Run's power accountant would count the victim's
	// circuits twice once the retry queue re-places it.
	Preempt bool
}

// Runner binds a scheduler and a state and runs traces. It holds
// configuration only — every run builds its own event core — so one
// Runner may serve any number of runs.
type Runner struct {
	st          *sched.State
	sch         sched.Scheduler
	model       *power.Model
	sampleEvery int64
	faults      Faults
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
	if cfg.SampleEvery < 0 {
		return nil, fmt.Errorf("sim: negative sample interval %d", cfg.SampleEvery)
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
	return &Runner{st: st, sch: sch, model: m, sampleEvery: cfg.SampleEvery, faults: f}, nil
}

// Run plays the whole trace and returns the aggregated result. The state
// is left as the trace leaves it (all VMs depart by trace makespan, so a
// full run restores the initial state). It refuses Faults.Preempt:
// preemption releases its victims without the releasing hook, and the
// accountant would count a re-placed victim's circuits twice.
//
// Arrivals are pulled lazily through the workload.Stream adapter and
// merged with the event core's heap, which only ever holds the pending
// departures and fault-plan events.
func (r *Runner) Run(tr *workload.Trace) (*Result, error) {
	if r.faults.Preempt {
		return nil, fmt.Errorf("sim: Run does not preempt (victims leave without the releasing hook, so its power accountant would count a re-placed victim twice); Faults.Preempt is for stream runs")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	src := workload.NewTraceStream(tr)
	o := &runObserver{
		r:    r,
		res:  &Result{Algorithm: r.sch.Name(), Workload: tr.Name},
		acct: power.NewAccountant(r.model),
	}
	c := newEventCore(r.st, r.sch, o, r.faults)
	o.c = c
	c.seedPlan(0)
	o.record()

	pending, more := src.Next()
	for c.h.Len() > 0 || more {
		var err error
		if c.heapFirst(pending.Arrival, more) {
			err = c.step()
		} else if err = c.tick(pending.Arrival); err == nil {
			c.admit(pending)
			pending, more = src.Next()
		}
		if err != nil {
			return nil, err
		}
		o.record()
	}
	c.abandon()
	return o.finish(), nil
}

// runObserver is Run's view of the event core: the power accountant, the
// time-weighted utilization signals, the sample series and the whole-run
// counters.
type runObserver struct {
	r    *Runner
	c    *eventCore
	res  *Result
	acct *power.Accountant

	utilW                  [units.NumResources]metrics.TimeWeighted
	intraW, interW, powerW metrics.TimeWeighted
	latencySum             time.Duration
	waitSum                float64
	nextSample             int64
}

func (o *runObserver) advance(to int64) {
	o.acct.AdvanceSeconds(float64(to-o.c.now) * SecondsPerTimeUnit)
}

func (o *runObserver) decided(_ workload.VM, d time.Duration, _ bool) {
	o.res.SchedulingTime += d
}

func (o *runObserver) placed(q QueuedVMState, a *sched.Assignment, waited bool) {
	res := o.res
	if q.Displaced {
		res.Recovered++ // already accepted at its arrival: not a second acceptance
	} else {
		res.Scheduled++
	}
	if a.InterRack() {
		res.InterRack++
	}
	if a.InterPod() {
		res.InterPod++
	}
	o.latencySum += a.CPURAMLatency()
	o.attach(a)
	if waited {
		res.RetrySucceeded++
		o.waitSum += float64(o.c.now - q.VM.Arrival)
	}
}

func (o *runObserver) enqueued(QueuedVMState) { o.res.Enqueued++ }

func (o *runObserver) dropped(q QueuedVMState) {
	if q.Displaced {
		o.res.DisplacedLost++
	} else {
		o.res.Dropped++
	}
}

// releasing detaches a's circuits from the accountant (which reads each
// circuit's shape, so this must precede the release that empties it). A
// departing VM's circuits add their Equation 1 energy; an evicted VM's do
// not — their lifetime is cut short.
func (o *runObserver) releasing(vm workload.VM, a *sched.Assignment, evicted bool) {
	life := time.Duration(float64(vm.Lifetime) * SecondsPerTimeUnit * float64(time.Second))
	for _, fl := range [...]*network.Flow{a.CPURAMFlow, a.RAMSTOFlow} {
		if fl == nil {
			continue
		}
		o.acct.Remove(fl)
		if !evicted {
			o.res.Eq1EnergyJ += o.r.model.FlowEnergy(fl, life)
		}
	}
}

func (o *runObserver) displaced(a *sched.Assignment, recovered bool, _ time.Duration) {
	o.res.Displaced++
	if recovered {
		o.res.Recovered++
		o.attach(a)
	}
}

// attach registers a's circuits with the accountant.
func (o *runObserver) attach(a *sched.Assignment) {
	for _, fl := range [...]*network.Flow{a.CPURAMFlow, a.RAMSTOFlow} {
		if fl != nil {
			o.acct.Add(fl)
		}
	}
}

// sample reads the instantaneous signals at the core's clock.
func (o *runObserver) sample() Sample {
	st := o.r.st
	s := Sample{
		T:         o.c.now,
		IntraUtil: st.Fabric.IntraRackUtilization() * 100,
		InterUtil: st.Fabric.InterRackUtilization() * 100,
		PowerW:    o.acct.Power(),
		Resident:  o.c.resident,
	}
	for _, k := range units.Resources() {
		s.Util[k] = st.Cluster.Utilization(k) * 100
	}
	return s
}

// record feeds the signals' values from the core's clock onward into the
// time-weighted integrators, and the sample series when one is due.
func (o *runObserver) record() {
	s := o.sample()
	t := float64(s.T)
	for k := range s.Util {
		o.utilW[k].Set(t, s.Util[k])
	}
	o.intraW.Set(t, s.IntraUtil)
	o.interW.Set(t, s.InterUtil)
	o.powerW.Set(t, s.PowerW)
	if every := o.r.sampleEvery; every > 0 && s.T >= o.nextSample {
		o.res.Samples = append(o.res.Samples, s)
		o.nextSample = (s.T/every + 1) * every
	}
}

// finish seals the run's aggregates.
func (o *runObserver) finish() *Result {
	res, end := o.res, o.c.now
	if n := len(res.Samples); o.r.sampleEvery > 0 && (n == 0 || res.Samples[n-1].T != end) {
		res.Samples = append(res.Samples, o.sample())
	}
	if res.RetrySucceeded > 0 {
		res.MeanWait = o.waitSum / float64(res.RetrySucceeded)
	}
	res.Makespan = end
	for k := range o.utilW {
		res.AvgUtil[k] = o.utilW[k].Average(float64(end))
		res.PeakUtil[k] = o.utilW[k].Peak()
	}
	res.AvgIntraUtil = o.intraW.Average(float64(end))
	res.PeakIntraUtil = o.intraW.Peak()
	res.AvgInterUtil = o.interW.Average(float64(end))
	res.PeakInterUtil = o.interW.Peak()
	res.AvgPowerW = o.powerW.Average(float64(end))
	res.PeakPowerW = o.acct.PeakPower()
	res.EnergyJ = o.acct.EnergyJoules()
	if res.Scheduled > 0 {
		res.MeanCPURAMLatency = o.latencySum / time.Duration(res.Scheduled)
	}
	if total := res.Scheduled + res.Dropped; total > 0 {
		res.InterRackPct = float64(res.InterRack) / float64(total) * 100
	}
	return res
}
