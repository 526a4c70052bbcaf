// The steady-state ladders (`-exp churn`, `-exp faults`, `-exp slo`) are
// one grid — fault rung × utilization rung × algorithm, each cell an
// open-ended controlled stream on a fresh datacenter — behind three sets
// of defaults: churn sweeps utilization fault-free, faults adds the
// box-outage axis, slo is faults with a tier mix, eviction and preemption
// forced on. runLadder is the only runner; ladder_render.go draws the
// three tables.
package experiments

import (
	"fmt"

	"risa/internal/faults"
	"risa/internal/sim"
	"risa/internal/units"
	"risa/internal/workload"
)

// ChurnRung is one operating point of the utilization axis. Target is the
// desired binding-resource occupancy as a fraction; a target at or above 1
// is an overload rung and runs at a fixed arrival rate of Target × the
// cluster's sustainable rate instead of under the feedback controller (a
// controller chasing an unreachable target just slams into its clamp).
type ChurnRung struct {
	Label  string
	Target float64
}

// DefaultChurnRungs returns the utilization axis of `-exp churn`: three
// controlled operating points and one overload rung.
func DefaultChurnRungs() []ChurnRung {
	return []ChurnRung{
		{Label: "60%", Target: 0.60},
		{Label: "75%", Target: 0.75},
		{Label: "90%", Target: 0.90},
		{Label: "overload", Target: 1.10},
	}
}

// FaultRung is one point of the fault axis: a box-tier outage process.
// The zero MTBF rung is the fault-free baseline.
type FaultRung struct {
	Label string
	// MTBF and MTTR are the per-box mean up and down times in simulated
	// time units; MTBF 0 disables faults for the rung.
	MTBF, MTTR int64
}

// DefaultFaultMTTR is the default per-box mean repair time.
const DefaultFaultMTTR = 2000

// DefaultFaultRungs returns the fault axis of `-exp faults` and `-exp
// slo`: a fault-free baseline, a calm regime (a handful of concurrent box
// outages) and a stormy one (an order of magnitude more), repairing in
// mttr time units (≤ 0 selects DefaultFaultMTTR).
func DefaultFaultRungs(mttr int64) []FaultRung {
	if mttr <= 0 {
		mttr = DefaultFaultMTTR
	}
	return []FaultRung{
		{Label: "none"},
		{Label: "calm", MTBF: 50000, MTTR: mttr},
		{Label: "storm", MTBF: 5000, MTTR: mttr},
	}
}

// cloneWindows is the per-cell measurement budget, in complete windows,
// of a Clone ladder that sets no Duration.
const cloneWindows = 16

// LadderConfig parameterizes a steady-state ladder. RunChurn, RunFaults
// and RunSLO each fill the zero fields with their own defaults.
type LadderConfig struct {
	// Arrivals caps each cell's arrival budget (default 100 000; under a
	// Duration cap that usually binds first).
	Arrivals int
	// Duration caps each cell's simulated time and is the fault plans'
	// generation horizon (0 = churn: the arrival budget is the only stop
	// criterion, faults/slo: 50 000).
	Duration int64
	// Util is the utilization axis.
	Util []ChurnRung
	// Faults is the fault axis; hand DefaultFaultRungs(mttr) in to change
	// the default rungs' repair time.
	Faults []FaultRung
	// Evict turns on displaced-VM recovery: VMs on failed hardware are
	// evicted and re-placed through the scheduler instead of riding out
	// the outage in place. It only engages on rungs that have a plan to
	// displace anyone.
	Evict bool
	// Preempt lets higher-tier arrivals displace strictly-lower-tier
	// residents when placement fails. Preemption re-queues its victims, so
	// it turns the retry queue on with it; it is pointless without a Tiers
	// mix, since an untiered ladder has no lower tiers.
	Preempt bool
	// Tiers optionally stamps a priority mix on arrivals (zero = every VM
	// tier 0, bit-identical to a ladder that never heard of tiers).
	Tiers workload.TierMix
	// Clone switches the ladder to warm-state sharing: each utilization
	// rung's cluster is warmed ONCE — fault-free, under RISA, the paper's
	// scheduler — to the end of warmup and snapshotted there, and every
	// (fault rung, algorithm) cell of the rung resumes the shared snapshot
	// instead of re-simulating its own warm phase: the controlled-
	// comparison protocol of Protean-style cluster studies, all algorithms
	// starting from the identical warm state. Plan events before the
	// snapshot point are dropped, so faults begin exactly when measurement
	// does. Without a Duration each resumed cell runs cloneWindows
	// measurement windows instead of the full arrival budget, which is
	// where most of the wall-clock saving comes from. Results stay
	// deterministic and independent of the worker-pool width, but are NOT
	// comparable to a default ladder's, whose cells warm up under their
	// own algorithm, live through early faults and spend the full budget.
	Clone bool
}

// Cell is one steady-state run of a ladder.
type Cell struct {
	Fault     FaultRung
	Util      ChurnRung
	Algorithm string
	Result    *sim.SteadyState
}

// Ladder is a full grid of steady-state runs.
type Ladder struct {
	Setup Setup
	// Config is the configuration as run: defaults filled in, Duration the
	// cap every cell actually ran under (a Clone ladder derives one).
	Config LadderConfig
	// Cells is fault-rung-major, then utilization rung, then Algorithms
	// order.
	Cells []Cell
}

// ChurnPhases computes a ladder's warmup and window lengths: two mean
// lifetimes of warmup (fills and settles the resident population) and one
// lifetime per window, both shrunk when a duration cap leaves no room
// (warmup at most a quarter of the run, at least four windows in the
// remainder). Exported because the CLI's snapshot/restore path must
// reproduce the exact phase boundaries of the ladder it snapshots.
func ChurnPhases(duration int64) (warmup, window int64) {
	base := workload.DefaultSyntheticConfig()
	warmup = 2 * base.LifetimeBase
	window = base.LifetimeBase
	if duration > 0 {
		if warmup > duration/4 {
			warmup = duration / 4
		}
		if window > (duration-warmup)/4 {
			window = (duration - warmup) / 4
		}
		if window < 1 {
			window = 1
		}
	}
	return warmup, window
}

// NewCell builds what one steady-state cell runs on: a pristine datacenter
// bound to the named scheduler under the fault surface f, and the
// controlled stream that holds it at target; the caller picks RunStream,
// WarmStream or ResumeStream on the runner.
//
// The stream is the §5.1 request mix made stationary: fixed lifetimes
// (LifetimeStep = 0), so occupancy converges instead of drifting with the
// paper's per-set lifetime growth, with the priority mix (when enabled)
// stamped on arrivals. The initial arrival rate is computed analytically
// from the capacity of the binding resource,
//
//	rate = target · min_k cap_k / (E[lifetime] · E[req_k]),
//
// which lands the cluster near the target before the controller has seen
// any feedback; sub-unity targets then hold the point with a
// UtilizationController, overload targets keep the fixed (infeasible) rate.
func (s Setup) NewCell(algorithm string, target float64, mix workload.TierMix, f sim.Faults) (*sim.Runner, *workload.SyntheticStream, error) {
	if target <= 0 {
		return nil, nil, fmt.Errorf("experiments: cell target must be positive, got %g", target)
	}
	st, err := s.NewState()
	if err != nil {
		return nil, nil, err
	}
	cfg := workload.DefaultSyntheticConfig()
	cfg.Seed = s.Seed
	cfg.LifetimeStep = 0 // stationary lifetimes
	cfg.Tiers = mix
	meanReq := [units.NumResources]float64{
		units.CPU:     float64(cfg.CPUMin+cfg.CPUMax) / 2,
		units.RAM:     float64(cfg.RAMMin+cfg.RAMMax) / 2,
		units.Storage: float64(cfg.StorageGB),
	}
	bindingRate := 0.0
	for _, k := range units.Resources() {
		if meanReq[k] <= 0 {
			continue
		}
		r := float64(st.Cluster.TotalCapacity(k)) / (float64(cfg.LifetimeBase) * meanReq[k])
		if bindingRate == 0 || r < bindingRate {
			bindingRate = r
		}
	}
	if bindingRate <= 0 {
		return nil, nil, fmt.Errorf("experiments: cell cluster has no capacity")
	}
	cfg.MeanInterarrival = 1 / (target * bindingRate)
	if target < 1 {
		cfg.Controller = &workload.UtilizationController{Target: target}
	}
	stream, err := cfg.NewStream()
	if err != nil {
		return nil, nil, err
	}
	sch, err := NewScheduler(algorithm, st)
	if err != nil {
		return nil, nil, err
	}
	runner, err := sim.NewRunner(st, sch, sim.Config{Faults: f})
	if err != nil {
		return nil, nil, err
	}
	return runner, stream, nil
}

// faultPlan generates one rung's box-outage plan over the given horizon
// (nil for the fault-free baseline rung).
func (s Setup) faultPlan(rung FaultRung, horizon int64) (*faults.Plan, error) {
	if rung.MTBF <= 0 {
		return nil, nil
	}
	return faults.Generate(faults.GenConfig{
		Seed:         s.Seed,
		Horizon:      horizon,
		Racks:        s.Topology.Racks,
		BoxesPerRack: s.Topology.BoxesPerRack(),
		Box:          faults.TierRates{MTBF: float64(rung.MTBF), MTTR: float64(rung.MTTR)},
	})
}

// runLadder executes a grid whose axes the caller has filled in: every
// cell a fresh datacenter consuming its utilization rung's controlled
// stream while its fault rung's plan plays out. Cells run on the shared
// worker pool; plans and streams are seeded deterministically, so
// placements, acceptance, utilization and availability are bit-identical
// whatever the pool width, while latency percentiles and placements/sec
// are wall-clock and inflate when cells contend for cores (regenerate
// with -parallel 1 for honest timings, like Figure 12).
func (s Setup) runLadder(cfg LadderConfig) (*Ladder, error) {
	if cfg.Arrivals == 0 {
		cfg.Arrivals = 100000
	}
	if cfg.Arrivals < 0 || cfg.Duration < 0 {
		return nil, fmt.Errorf("experiments: negative ladder bounds (arrivals %d, duration %d)", cfg.Arrivals, cfg.Duration)
	}
	for _, r := range cfg.Util {
		if r.Target <= 0 {
			return nil, fmt.Errorf("experiments: utilization rung %q target must be positive, got %g", r.Label, r.Target)
		}
	}
	for _, r := range cfg.Faults {
		if r.MTBF < 0 || (r.MTBF > 0 && r.MTTR <= 0) {
			return nil, fmt.Errorf("experiments: fault rung %q has MTBF %d / MTTR %d", r.Label, r.MTBF, r.MTTR)
		}
	}
	if err := cfg.Tiers.Validate(); err != nil {
		return nil, err
	}
	warmup, window := ChurnPhases(cfg.Duration)
	if cfg.Clone && cfg.Duration == 0 {
		// Warmup plus the window budget (one spare so the last counted
		// window is closed by an event at or past its end).
		cfg.Duration = warmup + (cloneWindows+1)*window
	}
	base := sim.StreamConfig{
		Workload: sim.StreamWorkload{MaxArrivals: cfg.Arrivals, Duration: cfg.Duration},
		Windows:  sim.StreamWindows{Warmup: warmup, Window: window},
	}

	// One plan per fault rung, generated once and shared read-only by the
	// rung's cells — it depends only on the rung's rates, the seed and the
	// cluster dimensions.
	plans := make([]*faults.Plan, len(cfg.Faults))
	for i, rung := range cfg.Faults {
		var err error
		if plans[i], err = s.faultPlan(rung, cfg.Duration); err != nil {
			return nil, err
		}
	}

	// Clone mode: one fault-free RISA warm run per utilization rung; the
	// snapshot is immutable and resumed concurrently by the rung's cells.
	var snaps []*sim.Snapshot
	if cfg.Clone {
		snaps = make([]*sim.Snapshot, len(cfg.Util))
		warm := base
		warm.Snapshot.At = warmup
		err := Engine{}.ForEach(len(cfg.Util), func(i int) error {
			runner, arrivals, err := s.NewCell("RISA", cfg.Util[i].Target, cfg.Tiers, sim.Faults{})
			if err == nil {
				snaps[i], err = runner.WarmStream(arrivals, warm)
			}
			if err != nil {
				return fmt.Errorf("warming utilization rung %s: %w", cfg.Util[i].Label, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	out := &Ladder{Setup: s, Config: cfg}
	for _, fault := range cfg.Faults {
		for _, util := range cfg.Util {
			for _, alg := range Algorithms {
				out.Cells = append(out.Cells, Cell{Fault: fault, Util: util, Algorithm: alg})
			}
		}
	}
	perUtil := len(Algorithms)
	perFault := len(cfg.Util) * perUtil
	err := Engine{}.ForEach(len(out.Cells), func(i int) error {
		cell := &out.Cells[i]
		var f sim.Faults
		if plan := plans[i/perFault]; plan != nil {
			f = sim.Faults{Plan: plan, Evict: cfg.Evict}
		}
		if cfg.Preempt {
			f.Retry, f.Preempt = true, true
		}
		var snap *sim.Snapshot
		if cfg.Clone {
			snap = snaps[i%perFault/perUtil]
		}
		if err := s.runCell(cell, cfg.Tiers, f, base, snap); err != nil {
			return fmt.Errorf("%s at fault rung %s, utilization rung %s: %w", cell.Algorithm, cell.Fault.Label, cell.Util.Label, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runCell fills in the cell's result: a fresh run under run and the fault
// surface f, or — given a warm snapshot — that snapshot resumed. A
// snapshot warmed under RISA resumes under the cell's own scheduler
// starting from its zero decision state.
func (s Setup) runCell(cell *Cell, mix workload.TierMix, f sim.Faults, run sim.StreamConfig, snap *sim.Snapshot) error {
	runner, arrivals, err := s.NewCell(cell.Algorithm, cell.Util.Target, mix, f)
	if err != nil {
		return err
	}
	if snap != nil {
		cell.Result, err = runner.ResumeStream(arrivals, snap, run)
	} else {
		cell.Result, err = runner.RunStream(arrivals, run)
	}
	return err
}

// RunChurn executes the steady-state churn ladder: the utilization axis
// (default DefaultChurnRungs) fault-free under every algorithm, each cell
// sustaining the arrival budget with warmup-excluded windowed metrics.
// The churn table has no fault columns, so a fault axis is refused.
func (s Setup) RunChurn(cfg LadderConfig) (*Ladder, error) {
	if len(cfg.Faults) > 0 {
		return nil, fmt.Errorf("experiments: the churn ladder is fault-free; use RunFaults for a fault axis")
	}
	cfg.Faults = []FaultRung{{Label: "none"}}
	if len(cfg.Util) == 0 {
		cfg.Util = DefaultChurnRungs()
	}
	return s.runLadder(cfg)
}

// RunFaults executes the availability ladder: every fault rung (default
// DefaultFaultRungs) at every utilization rung (default 60% and 90%)
// under every algorithm, each cell consuming its rung's deterministic
// stochastic fault plan over a 50 000 tu default horizon.
func (s Setup) RunFaults(cfg LadderConfig) (*Ladder, error) {
	if cfg.Duration == 0 {
		cfg.Duration = 50000
	}
	if len(cfg.Util) == 0 {
		cfg.Util = []ChurnRung{{Label: "60%", Target: 0.60}, {Label: "90%", Target: 0.90}}
	}
	if len(cfg.Faults) == 0 {
		cfg.Faults = DefaultFaultRungs(0)
	}
	return s.runLadder(cfg)
}

// SLOTargetPct is the headline availability objective the SLO ladder
// grades tier 0 against: accepted/arrivals over the measured phase, in
// percent.
const SLOTargetPct = 99.9

// RunSLO executes the SLO ladder: the availability ladder with a tier mix
// (default workload.DefaultTierMix) stamped on arrivals and displaced-VM
// recovery, the retry queue and preemption all on — the question it
// answers is whether preemption holds tier 0's availability through
// storms that visibly dent the lower tiers.
func (s Setup) RunSLO(cfg LadderConfig) (*Ladder, error) {
	cfg.Evict, cfg.Preempt = true, true
	if !cfg.Tiers.Enabled() {
		cfg.Tiers = workload.DefaultTierMix()
	}
	return s.RunFaults(cfg)
}
