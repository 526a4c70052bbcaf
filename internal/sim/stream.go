package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"risa/internal/sched"
	"risa/internal/units"
	"risa/internal/workload"
)

// StreamWorkload bounds one open-ended run: at least one of MaxArrivals
// and Duration must stop it.
type StreamWorkload struct {
	// MaxArrivals stops the run after this many arrivals have been
	// processed (0 = unbounded, then Duration must be set).
	MaxArrivals int
	// Duration stops the run at this simulated time: arrivals beyond it
	// are not consumed (0 = unbounded, then MaxArrivals must be set).
	Duration int64
	// Drain, when set, keeps simulating departures after the arrival
	// budget is exhausted until the cluster is empty again (excluded from
	// all metrics — an emptying cluster is not steady state). The default
	// stops at the last arrival and leaves the state loaded.
	Drain bool
}

// StreamWindows shapes the steady-state measurement: the warmup cut and
// the reporting windows.
type StreamWindows struct {
	// Warmup excludes the first Warmup time units from every metric:
	// windows, utilization averages, acceptance counts and the latency
	// reservoir all start at t = Warmup. The controller (if the stream
	// has one) receives feedback from t = 0 so it converges during
	// warmup.
	Warmup int64
	// Window is the steady-state reporting window length in time units;
	// must be positive. Only complete windows are reported.
	Window int64
}

// reservoirSize bounds every latency sample kept for the percentile
// estimates. Size and sampling seeds (1 for decisions, 2 for
// re-placements, 3+tier per tier) are fixed, so a run is reproducible end
// to end.
const reservoirSize = 4096

// StreamSnapshot arms warm-state capture (see snapshot.go).
type StreamSnapshot struct {
	// At is WarmStream's capture point: at the first event boundary with
	// next-event time ≥ At the run's complete state is captured as a
	// Snapshot (see snapshot.go for the determinism contract) and the run
	// stops there. RunStream and ResumeStream refuse a positive At —
	// WarmStream is the one capture path.
	At int64
}

// StreamConfig parameterizes one open-ended steady-state run
// (Runner.RunStream), grouped by concern. The fault surface is the
// Runner's (Config.Faults).
type StreamConfig struct {
	// Workload bounds the arrival stream.
	Workload StreamWorkload
	// Windows shapes the warmup cut, reporting windows and reservoirs.
	Windows StreamWindows
	// Snapshot arms warm-state capture.
	Snapshot StreamSnapshot
}

// Validate checks the configuration.
func (c StreamConfig) Validate() error {
	if c.Workload.MaxArrivals <= 0 && c.Workload.Duration <= 0 {
		return fmt.Errorf("sim: stream run needs a stop criterion (MaxArrivals or Duration)")
	}
	if c.Workload.MaxArrivals < 0 || c.Workload.Duration < 0 || c.Windows.Warmup < 0 {
		return fmt.Errorf("sim: negative stream bounds (arrivals %d, duration %d, warmup %d)",
			c.Workload.MaxArrivals, c.Workload.Duration, c.Windows.Warmup)
	}
	if c.Windows.Window <= 0 {
		return fmt.Errorf("sim: stream window must be positive, got %d", c.Windows.Window)
	}
	if c.Workload.Duration > 0 && c.Workload.Duration <= c.Windows.Warmup {
		return fmt.Errorf("sim: duration %d must exceed warmup %d", c.Workload.Duration, c.Windows.Warmup)
	}
	if c.Snapshot.At < 0 {
		return fmt.Errorf("sim: negative snapshot point %d", c.Snapshot.At)
	}
	return nil
}

// WindowStats is one complete steady-state reporting window.
type WindowStats struct {
	// Start and End delimit the window, [Start, End).
	Start, End int64
	// Arrivals, Accepted and Dropped count the VMs that arrived inside
	// the window. Under the retry queue, Accepted counts placements that
	// happened inside the window (a queued arrival may be accepted in a
	// later window than it arrived in) and queued-but-unplaced arrivals
	// count in neither bucket, so Accepted+Dropped may differ from
	// Arrivals.
	Arrivals, Accepted, Dropped int
	// Displaced and Recovered count the window's fault evictions and the
	// re-placements (attributed to the window the recovery happened in;
	// see Faults.Evict).
	Displaced, Recovered int
	// TierArrivals, TierAccepted and TierPreempted break the window's
	// arrival, acceptance and preemption counts down by priority tier
	// (all in tier 0 for untiered workloads). TierPreempted counts the
	// window's evictions by the victim's tier.
	TierArrivals  [workload.NumTiers]int
	TierAccepted  [workload.NumTiers]int
	TierPreempted [workload.NumTiers]int
	// AvgUtil is the time-weighted compute utilization per resource over
	// the window, in percent. Capacity hidden by an active failure counts
	// as used — the denominator stays the nameplate capacity.
	AvgUtil [units.NumResources]float64
}

// TierAcceptancePct returns the window's acceptance rate for one tier in
// percent (100 for a tier with no arrivals in the window).
func (w WindowStats) TierAcceptancePct(tier int) float64 {
	return acceptancePct(w.TierAccepted[tier], w.TierArrivals[tier])
}

// AcceptancePct returns the window's acceptance rate in percent (100 for
// an empty window).
func (w WindowStats) AcceptancePct() float64 { return acceptancePct(w.Accepted, w.Arrivals) }

// acceptancePct is accepted/arrivals in percent, 100 with no arrivals.
func acceptancePct(accepted, arrivals int) float64 {
	if arrivals == 0 {
		return 100
	}
	return float64(accepted) / float64(arrivals) * 100
}

// TierStats is the per-priority-tier breakdown of one open-ended run:
// arrival/outcome counters in both whole-run and measured (post-warmup)
// form, preemption counters by victim tier, and the tier's own
// direct-decision latency percentiles. Untiered workloads put everything
// in tier 0.
type TierStats struct {
	// Whole-run counters (warmup included).
	TotalArrivals, TotalAccepted, TotalDropped int
	// Measured (post-warmup) counters.
	Arrivals, Accepted, Dropped int
	// Preempted counts this tier's VMs evicted by a higher-priority
	// arrival (whole run); PreemptRecovered the subset later re-placed
	// from the retry queue. A recovery never counts as a second
	// acceptance.
	Preempted, PreemptRecovered int
	// Direct-decision latency percentiles over the measured phase,
	// estimated from a per-tier reservoir of LatencySamples observations.
	LatencyP50, LatencyP95, LatencyP99 time.Duration
	LatencySamples                     int
}

// AcceptancePct returns the tier's measured acceptance rate in percent
// (100 when the tier saw no measured arrivals).
func (t TierStats) AcceptancePct() float64 { return acceptancePct(t.Accepted, t.Arrivals) }

// SteadyState aggregates one open-ended run. The "measured" figures
// exclude the warmup period; the "Total" figures cover the whole run.
type SteadyState struct {
	Algorithm string
	Workload  string

	// Whole-run counters (warmup included).
	TotalArrivals, TotalAccepted, TotalDropped int

	// Measured (post-warmup) counters.
	Arrivals, Accepted, Dropped int

	// Windows holds every complete post-warmup reporting window.
	Windows []WindowStats

	// AvgUtil is the time-weighted compute utilization per resource over
	// the whole measured span, in percent.
	AvgUtil [units.NumResources]float64

	// Placement-decision latency percentiles over the measured phase,
	// estimated from a fixed-size reservoir of LatencySamples
	// observations. Only direct arrival-time decisions are sampled;
	// retry-queue drains are not.
	LatencyP50, LatencyP95, LatencyP99 time.Duration
	LatencySamples                     int

	// Fault/availability counters (zero without a fault plan; see
	// Faults.Plan/Evict). Displaced counts VMs evicted off failed
	// hardware over the whole run, Recovered the subset re-placed
	// (immediately, or later from the retry queue — a recovery never
	// counts as a second acceptance), DisplacedLost those gone for good,
	// DisplacedQueued those that took the retry-queue detour. At the end
	// of a run Displaced == Recovered + DisplacedLost.
	Displaced       int
	Recovered       int
	DisplacedLost   int
	DisplacedQueued int

	// Re-placement latency percentiles over the measured phase: the
	// Schedule wall clock of displaced-VM recoveries, estimated from a
	// second reservoir of ReplaceSamples observations.
	ReplaceP50, ReplaceP95, ReplaceP99 time.Duration
	ReplaceSamples                     int

	// Retry-queue statistics (Faults.Retry, mirroring Result):
	// Enqueued counts arrivals (and displaced VMs) that waited,
	// RetrySucceeded those eventually placed, MeanWait their average
	// queue time. Arrivals still waiting when the run stops count into
	// TotalDropped only (displaced VMs into DisplacedLost) — their
	// outcome is unresolved in the measured phase.
	Enqueued       int
	RetrySucceeded int
	MeanWait       float64

	// Tiers is the per-priority-tier breakdown of the run (see
	// TierStats); untiered workloads land entirely in tier 0.
	Tiers [workload.NumTiers]TierStats

	// Preemption counters (zero unless Faults.Preempt): Preempted
	// counts victims evicted to admit a higher-priority arrival,
	// PreemptRecovered those later re-placed from the retry queue,
	// PreemptLost those never re-placed (still waiting when the run
	// stopped). At the end of a run Preempted == PreemptRecovered +
	// PreemptLost.
	Preempted        int
	PreemptRecovered int
	PreemptLost      int

	// SchedulingTime is the wall clock spent inside Schedule calls;
	// WallTime the whole run's wall clock (drain excluded).
	SchedulingTime time.Duration
	WallTime       time.Duration

	// End is the simulated time of the last measured event; Resident the
	// VMs still placed then.
	End      int64
	Resident int

	// RateMultiplier is the stream controller's final rate multiplier
	// (1 for uncontrolled streams).
	RateMultiplier float64
}

// PlacementsPerSec returns the sustained scheduling throughput: accepted
// VMs (whole run) per wall-clock second.
func (s *SteadyState) PlacementsPerSec() float64 {
	if s.WallTime <= 0 {
		return 0
	}
	return float64(s.TotalAccepted) / s.WallTime.Seconds()
}

// RunStream drives the scheduler over an open-ended arrival stream until
// the configured stop criterion, reporting warmup-excluded windowed
// steady-state metrics instead of Run's whole-trace aggregates.
//
// Arrivals are pulled lazily — the event core's heap only ever holds the
// resident VMs' departures plus the pending fault-plan events, so memory
// is bounded by occupancy and plan length, not run length. The full fault
// surface applies (see Faults and the event core's ordering rules).
// If the stream implements workload.UtilizationObserver it receives the
// binding-resource utilization after every arrival, which is how the
// target-utilization controller closes its loop; any other stream has
// each run of same-instant arrivals admitted as one burst with a single
// utilization sample at its end — exact, because the signal is
// piecewise-constant and time does not move inside a burst.
func (r *Runner) RunStream(s workload.Stream, cfg StreamConfig) (*SteadyState, error) {
	if err := noCapture(cfg); err != nil {
		return nil, err
	}
	sr, err := r.newStreamRun(s, cfg)
	if err != nil {
		return nil, err
	}
	if err := sr.loop(); err != nil {
		return nil, err
	}
	return sr.finish(), nil
}

// noCapture refuses a capture point on a run that does not stop to
// capture: WarmStream is the one capture path.
func noCapture(cfg StreamConfig) error {
	if cfg.Snapshot.At > 0 {
		return fmt.Errorf("sim: Snapshot.At %d arms a capture, which only WarmStream takes", cfg.Snapshot.At)
	}
	return nil
}

// streamRun is one RunStream execution: the stream driver of the event
// core and its observer (windows, reservoirs, tier statistics). The same
// loop is entered three ways: fresh (RunStream), stopped at the snapshot
// boundary (WarmStream) and re-entered from a restored snapshot
// (ResumeStream). Every field is either snapshot state or derived from
// the configuration.
type streamRun struct {
	c   *eventCore
	s   workload.Stream
	cfg StreamConfig
	obs workload.UtilizationObserver

	res  *SteadyState
	lat  *reservoir
	rep  *reservoir
	tlat [workload.NumTiers]*reservoir // per-tier direct-decision latency
	wind *windower

	waitSum float64
	// measured reports whether outcomes count into the post-warmup
	// figures: set from the clock at every tick.
	measured bool

	pending workload.VM
	more    bool

	snap *Snapshot // WarmStream's capture (see StreamSnapshot and snapshot.go)
}

// streamShell validates the configuration and binds a stream run to a
// fresh event core under the runner's fault surface; the caller fills in
// the observer state (fresh, or from a snapshot).
func (r *Runner) streamShell(s workload.Stream, cfg StreamConfig) (*streamRun, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sr := &streamRun{s: s, cfg: cfg}
	sr.obs, _ = s.(workload.UtilizationObserver)
	sr.c = newEventCore(r.st, r.sch, sr, r.faults)
	return sr, nil
}

// newStreamRun assembles a fresh run: fault-plan events seeded, counters
// at zero, and the first arrival pulled.
func (r *Runner) newStreamRun(s workload.Stream, cfg StreamConfig) (*streamRun, error) {
	sr, err := r.streamShell(s, cfg)
	if err != nil {
		return nil, err
	}
	sr.res = &SteadyState{Algorithm: r.sch.Name(), Workload: s.Name(), RateMultiplier: 1}
	sr.lat = newReservoir(reservoirSize, 1)
	sr.rep = newReservoir(reservoirSize, 2) // re-placement latencies, own stream
	sr.wind = &windower{Warmup: cfg.Windows.Warmup, Window: cfg.Windows.Window}
	for t := range sr.tlat {
		sr.tlat[t] = newReservoir(reservoirSize, 3+int64(t)) // per tier, own stream each
	}
	sr.c.seedPlan(0)
	sr.pull()
	return sr, nil
}

// pull draws the next arrival into pending — unless it lies beyond the
// simulated-time bound, which ends the arrivals.
func (sr *streamRun) pull() {
	sr.pending, sr.more = sr.s.Next()
	if d := sr.cfg.Workload.Duration; sr.more && d > 0 && sr.pending.Arrival > d {
		sr.more = false
	}
	if sr.more {
		sr.res.TotalArrivals++
	}
}

// nextArrival hands out the pending arrival and pulls its successor —
// unless the arrival budget stops the run there.
func (sr *streamRun) nextArrival() workload.VM {
	vm := sr.pending
	if n := sr.cfg.Workload.MaxArrivals; n > 0 && sr.res.TotalArrivals >= n {
		sr.more = false
	} else {
		sr.pull()
	}
	return vm
}

// arrive moves the clock to the arrival and counts it; the caller admits
// it.
func (sr *streamRun) arrive(vm workload.VM) error {
	if err := sr.c.tick(vm.Arrival); err != nil {
		return fmt.Errorf("stream %q: %w", sr.s.Name(), err)
	}
	if err := vm.Validate(); err != nil {
		return err
	}
	sr.res.Tiers[vm.Tier].TotalArrivals++
	if sr.measured {
		sr.res.Arrivals++
		sr.wind.Cur.Arrivals++
		sr.res.Tiers[vm.Tier].Arrivals++
		sr.wind.Cur.TierArrivals[vm.Tier]++
	}
	return nil
}

// sample reads the compute utilization signal — per resource in percent,
// plus the binding (maximum) fraction — and records it from the current
// instant onward; after arrivals (feedback) an observing stream receives
// the binding value, which is how its controller closes the loop.
func (sr *streamRun) sample(feedback bool) {
	var perRes [units.NumResources]float64
	var binding float64
	for _, k := range units.Resources() {
		u := sr.c.st.Cluster.Utilization(k)
		perRes[k] = u * 100
		if u > binding {
			binding = u
		}
	}
	sr.wind.set(perRes)
	if feedback && sr.obs != nil {
		sr.obs.ObserveUtilization(binding)
	}
}

// loop steps the event core to the stop criterion — or, for WarmStream,
// to the snapshot boundary. The run ends with the arrival budget:
// simulating past the last arrival would only measure an emptying
// cluster, which is not steady state (Drain releases the survivors
// afterwards, unmetered). Fault events past the last arrival are
// likewise never applied.
func (sr *streamRun) loop() error {
	c := sr.c
	defer func(start time.Time) { sr.res.WallTime += time.Since(start) }(time.Now())
	for sr.more || c.h.Len() > 0 {
		arrivalNext := !c.heapFirst(sr.pending.Arrival, sr.more)
		next := sr.pending.Arrival
		if !arrivalNext {
			next = c.h.Min().t
		}
		if at := sr.cfg.Snapshot.At; at > 0 && next >= at {
			// WarmStream's boundary: every event before Snapshot.At has been
			// fully processed and nothing at or after it has started.
			var err error
			sr.snap, err = sr.capture()
			return err
		}
		if !arrivalNext {
			if err := c.step(); err != nil {
				return err
			}
			sr.sample(false)
			continue
		}
		vm := sr.nextArrival()
		if err := sr.arrive(vm); err != nil {
			return err
		}
		c.admit(vm)
		if sr.obs == nil && sr.more && sr.pending.Arrival == c.now &&
			!c.heapFirst(sr.pending.Arrival, sr.more) {
			// Mid-burst: the next event is another arrival of this
			// instant, so the one utilization sample waits for the
			// burst's last (see RunStream). The snapshot boundary cannot
			// fire in between — its condition already held, or already
			// fired, at the burst's first arrival.
			continue
		}
		sr.sample(true)
		if !sr.more {
			break // the arrival just admitted was the last: stop here
		}
	}
	return nil
}

func (sr *streamRun) advance(to int64) {
	sr.wind.advance(to)
	// wind.Warmup, not Windows.Warmup: a resumed run inherits the warm
	// phase's boundary from the snapshot (they agree on fresh runs).
	sr.measured = to >= sr.wind.Warmup
}

// decided bills every attempt to SchedulingTime; only direct
// arrival-time decisions feed the latency reservoirs.
func (sr *streamRun) decided(vm workload.VM, d time.Duration, direct bool) {
	sr.res.SchedulingTime += d
	if direct && sr.measured {
		sr.lat.add(float64(d))
		sr.tlat[vm.Tier].add(float64(d))
	}
}

func (sr *streamRun) placed(q QueuedVMState, _ *sched.Assignment, waited bool) {
	res, tier := sr.res, &sr.res.Tiers[q.VM.Tier]
	if waited {
		res.RetrySucceeded++
		sr.waitSum += float64(sr.c.now - q.VM.Arrival)
	}
	switch {
	case q.Displaced:
		// A late recovery: the VM already counted as accepted at its
		// original arrival, so only the displacement outcome moves.
		res.Recovered++
		if sr.measured {
			sr.wind.Cur.Recovered++
		}
	case q.Preempted:
		// Same: a preemption victim re-placed, not a new acceptance.
		res.PreemptRecovered++
		tier.PreemptRecovered++
	default:
		res.TotalAccepted++
		tier.TotalAccepted++
		if sr.measured {
			res.Accepted++
			tier.Accepted++
			sr.wind.Cur.Accepted++
			sr.wind.Cur.TierAccepted[q.VM.Tier]++
		}
	}
}

func (sr *streamRun) enqueued(q QueuedVMState) {
	sr.res.Enqueued++
	switch {
	case q.Displaced:
		sr.res.DisplacedQueued++
	case q.Preempted:
		sr.res.Preempted++
		sr.res.Tiers[q.VM.Tier].Preempted++
		if sr.measured {
			sr.wind.Cur.TierPreempted[q.VM.Tier]++
		}
	}
}

func (sr *streamRun) dropped(q QueuedVMState) {
	res, tier := sr.res, &sr.res.Tiers[q.VM.Tier]
	switch {
	case q.Displaced:
		res.DisplacedLost++ // was accepted once; its re-admission failed
	case q.Preempted:
		res.PreemptLost++ // likewise: a victim never re-placed
	default:
		res.TotalDropped++
		tier.TotalDropped++
		if sr.measured {
			res.Dropped++
			tier.Dropped++
			sr.wind.Cur.Dropped++
		}
	}
}

func (sr *streamRun) releasing(workload.VM, *sched.Assignment, bool) {}

func (sr *streamRun) displaced(_ *sched.Assignment, recovered bool, d time.Duration) {
	sr.res.Displaced++
	if sr.measured {
		sr.wind.Cur.Displaced++
	}
	if recovered {
		sr.res.Recovered++
		if sr.measured {
			sr.wind.Cur.Recovered++
			sr.rep.add(float64(d))
		}
	}
}

// finish seals the run: leftover queue entries, aggregate averages,
// percentile estimates and the optional drain.
func (sr *streamRun) finish() *SteadyState {
	res, c := sr.res, sr.c

	// VMs still queued were never placed; their outcome is unresolved in
	// the measured phase, so they count into the whole-run figures only.
	sr.measured = false
	c.abandon()
	if res.RetrySucceeded > 0 {
		res.MeanWait = sr.waitSum / float64(res.RetrySucceeded)
	}
	res.End = c.now
	res.Resident = c.resident
	// A trailing partial window is folded into the overall average but not
	// reported: it is not a full steady-state window.
	sr.wind.advance(c.now)
	res.Windows = sr.wind.Windows
	res.AvgUtil = sr.wind.overallAvg(c.now)
	res.LatencySamples, res.LatencyP50, res.LatencyP95, res.LatencyP99 = sr.lat.summary()
	res.ReplaceSamples, res.ReplaceP50, res.ReplaceP95, res.ReplaceP99 = sr.rep.summary()
	for t := range sr.tlat {
		ts := &res.Tiers[t]
		ts.LatencySamples, ts.LatencyP50, ts.LatencyP95, ts.LatencyP99 = sr.tlat[t].summary()
	}
	res.RateMultiplier = finalMultiplier(sr.s)

	if sr.cfg.Workload.Drain {
		// Unmetered: release the survivors so the state ends empty.
		for c.h.Len() > 0 {
			c.release(c.h.Pop().a)
		}
	}
	return res
}

// controlled is implemented by the workload generator streams that carry
// a UtilizationController.
type controlled interface {
	Controller() *workload.UtilizationController
}

// finalMultiplier recovers a stream's final rate multiplier when it
// exposes its controller, else 1.
func finalMultiplier(s workload.Stream) float64 {
	if c, ok := s.(controlled); ok {
		if ctl := c.Controller(); ctl != nil {
			return ctl.Multiplier()
		}
	}
	return 1
}

// windower integrates the piecewise-constant utilization signal into
// fixed-length post-warmup windows plus an overall measured average, and
// attributes arrival counts to the open window. Its whole position is the
// serializable WindowerState, so a snapshot is a clone of it.
type windower WindowerState

// set records the signal's value from the last advanced time onward.
func (w *windower) set(val [units.NumResources]float64) { w.Val = val }

// advance integrates the current signal up to time to, splitting the
// integral at window boundaries and closing every window it crosses.
func (w *windower) advance(to int64) {
	t := w.LastT
	w.LastT = to
	if to <= w.Warmup {
		return
	}
	if t < w.Warmup {
		t = w.Warmup
	}
	if w.Cur.End == 0 { // first measured segment: open window 0
		w.Cur.Start, w.Cur.End = w.Warmup, w.Warmup+w.Window
	}
	for t < to {
		seg := to
		if w.Cur.End < seg {
			seg = w.Cur.End
		}
		dt := float64(seg - t)
		for k := range w.Val {
			w.CurIntegral[k] += w.Val[k] * dt
			w.Overall[k] += w.Val[k] * dt
		}
		t = seg
		if t == w.Cur.End {
			w.closeCurrent()
		}
	}
}

// closeCurrent finalizes the open window and opens its successor.
func (w *windower) closeCurrent() {
	span := float64(w.Cur.End - w.Cur.Start)
	for k := range w.CurIntegral {
		w.Cur.AvgUtil[k] = w.CurIntegral[k] / span
	}
	w.Windows = append(w.Windows, w.Cur)
	w.Cur = WindowStats{Start: w.Cur.End, End: w.Cur.End + w.Window}
	w.CurIntegral = [units.NumResources]float64{}
}

// overallAvg returns the measured-span time average per resource.
func (w *windower) overallAvg(end int64) [units.NumResources]float64 {
	var out [units.NumResources]float64
	if end <= w.Warmup {
		return out
	}
	span := float64(end - w.Warmup)
	for k := range w.Overall {
		out[k] = w.Overall[k] / span
	}
	return out
}

// reservoir is a fixed-size uniform sample over a stream of observations
// (Vitter's algorithm R), used for the decision-latency percentiles. The
// sample buffer is preallocated to its fixed capacity and the percentile
// sort works on a reusable scratch copy, so the reservoir performs no
// per-observation allocations and at most one sort per batch of reads —
// part of the steady-state loop's memory discipline (DESIGN.md §9).
type reservoir struct {
	k        int
	n        int64
	seed     int64
	vals     []float64
	src      *workload.CountingSource // counted so snapshots can replay it
	rng      *rand.Rand
	sorted   []float64 // reusable scratch copy of vals, sorted
	sortedOK bool      // sorted reflects vals
}

// newReservoir returns a reservoir holding at most k samples.
func newReservoir(k int, seed int64) *reservoir {
	src := workload.NewCountingSource(seed)
	return &reservoir{k: k, seed: seed, vals: make([]float64, 0, k), src: src, rng: rand.New(src)}
}

// add offers one observation to the reservoir.
func (r *reservoir) add(v float64) {
	r.n++
	r.sortedOK = false
	if len(r.vals) < r.k {
		r.vals = append(r.vals, v)
		return
	}
	if j := r.rng.Int63n(r.n); j < int64(r.k) {
		r.vals[j] = v
	}
}

// samples returns the number of observations currently held.
func (r *reservoir) samples() int { return len(r.vals) }

// summary returns the sample count and the 50th, 95th and 99th
// percentiles as durations — the shape every latency report takes.
func (r *reservoir) summary() (n int, p50, p95, p99 time.Duration) {
	return r.samples(), time.Duration(r.percentile(50)), time.Duration(r.percentile(95)), time.Duration(r.percentile(99))
}

// percentile returns the p-th percentile (nearest-rank) of the held
// sample, 0 when empty. Consecutive reads share one sorted scratch copy.
func (r *reservoir) percentile(p float64) float64 {
	if len(r.vals) == 0 {
		return 0
	}
	if !r.sortedOK {
		r.sorted = append(r.sorted[:0], r.vals...)
		sort.Float64s(r.sorted)
		r.sortedOK = true
	}
	rank := int(p/100*float64(len(r.sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(r.sorted) {
		rank = len(r.sorted) - 1
	}
	return r.sorted[rank]
}
