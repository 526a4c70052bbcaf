// Package experiments contains one runner per table and figure of the
// RISA paper's evaluation (§4.3 and §5). Each runner builds a fresh
// datacenter, replays the right workload through the right algorithms,
// and returns a typed result that renders as an ASCII version of the
// paper's figure.
//
// The experiment index lives in DESIGN.md §5; measured-vs-paper numbers
// are recorded in EXPERIMENTS.md.
package experiments

import (
	"risa/internal/core"
	"risa/internal/network"
	"risa/internal/optics"
	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/topology"
	"risa/internal/workload"
)

// Algorithms lists the four schedulers in the paper's presentation order.
var Algorithms = []string{"NULB", "NALB", "RISA", "RISA-BF"}

// NewScheduler builds the named scheduler bound to st through the
// sched.New registry. The algorithms self-register from their packages'
// init functions (this package's use of core and baseline links all
// four in), so there is no switch-on-name construction here anymore.
func NewScheduler(name string, st *sched.State) (sched.Scheduler, error) {
	return sched.New(name, st)
}

// Setup fixes the environment of one experiment: the cluster architecture,
// the fabric provisioning and the optical device parameters.
type Setup struct {
	Topology topology.Config
	Network  network.Config
	Optics   optics.Config
	Seed     int64
}

// DefaultSetup returns the Table 1 architecture with the calibrated fabric
// provisioning — 16 uplinks per box, so a box's aggregate bandwidth
// (3.2 Tb/s) never binds before its compute does and no algorithm drops
// VMs for lack of intra-rack links, matching the paper's zero-drop runs
// (see EXPERIMENTS.md for the calibration) — and the paper's optical
// constants.
func DefaultSetup() Setup {
	return Setup{
		Topology: topology.DefaultConfig(),
		Network:  network.DefaultConfig(),
		Optics:   optics.DefaultConfig(),
		Seed:     1,
	}
}

// AzureSetup returns the configuration used for the practical-workload
// experiments (Figures 7-10 and 12): the DefaultSetup fabric with a
// storage-heavy rack composition of 1 CPU + 2 RAM + 3 storage boxes.
//
// The paper never states its rack composition. Its §5.1 synthetic
// utilization ratios pin equal CPU and RAM box counts (2/2/2 — used by
// the synthetic experiments), but under 2/2/2 the Azure request mix
// leaves every rack RAM-slack and the baselines co-locate ~97 % of VMs,
// nowhere near the paper's ≈50 % inter-rack rate. A storage-heavy rack
// tightens per-rack balance exactly where §5.2 says it matters ("storage
// is the most contended resource") and reproduces the shape of every
// §5.2 figure; the box-mix ablation shows both regimes side by side.
// See EXPERIMENTS.md for the full calibration story.
func AzureSetup() Setup {
	s := DefaultSetup()
	s.Topology.CPUBoxes = 1
	s.Topology.RAMBoxes = 2
	s.Topology.STOBoxes = 3
	return s
}

// AzureSetupFrom returns AzureSetup with the overridable knobs of s — seed,
// cluster size and fabric — carried over. Every place that switches from a
// caller's setup to the practical-workload rack composition must go through
// this helper so a newly added knob cannot be carried in one call site and
// forgotten in another.
func AzureSetupFrom(s Setup) Setup {
	azure := AzureSetup()
	azure.Seed = s.Seed
	azure.Topology.Racks = s.Topology.Racks
	azure.Network = s.Network
	return azure
}

// NewState builds a fresh datacenter for the setup.
func (s Setup) NewState() (*sched.State, error) {
	return sched.NewState(s.Topology, s.Network)
}

// SyntheticTrace generates the §5.1 synthetic workload with the setup's
// seed.
func (s Setup) SyntheticTrace() (*workload.Trace, error) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Seed = s.Seed
	return workload.Synthetic(cfg)
}

// AzureTrace generates the Azure-like workload for one subset with the
// setup's seed.
func (s Setup) AzureTrace(subset workload.AzureSubset) (*workload.Trace, error) {
	return workload.AzureLike(workload.AzureConfig{Subset: subset, Seed: s.Seed})
}

// AzureTraces generates the three Azure-like workloads, in paper order,
// with the setup's seed.
func (s Setup) AzureTraces() ([]*workload.Trace, error) {
	var traces []*workload.Trace
	for _, subset := range workload.Subsets() {
		tr, err := s.AzureTrace(subset)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return traces, nil
}

// Matrix is every algorithm run on every trace of a list under one setup:
// the shared result grid the paper's figures render from. Figures 5 and
// 11 read the matrix of the §5.1 synthetic trace, Figures 7–10 and 12 the
// matrix of the three Azure-like traces under AzureSetup, and the §5.3
// pool check (RenderPool) both.
type Matrix struct {
	Rows []MatrixRow // one per trace, in the order given
}

// MatrixRow is one trace's line of a Matrix.
type MatrixRow struct {
	Trace   string                 // the trace's name
	Results map[string]*sim.Result // by algorithm
	// Stats are RISA's and RISA-BF's decision counters, read off each
	// scheduler when its run ends.
	Stats map[string]core.Stats
}

// RunMatrix runs every algorithm on every trace, each cell on a fresh
// datacenter. The grid always runs on one worker, whatever the package
// parallelism: Figures 11 and 12 report wall-clock scheduling time, and
// runs contending for cores would inflate each other's measurement.
func (s Setup) RunMatrix(traces ...*workload.Trace) (*Matrix, error) {
	var jobs []Job
	for _, tr := range traces {
		for _, alg := range Algorithms {
			jobs = append(jobs, Job{Setup: s, Algorithm: alg, Trace: tr})
		}
	}
	outcomes, err := Engine{Workers: 1}.Run(jobs)
	if err != nil {
		return nil, err
	}
	m := &Matrix{Rows: make([]MatrixRow, len(traces))}
	for i, tr := range traces {
		m.Rows[i] = MatrixRow{
			Trace:   tr.Name,
			Results: make(map[string]*sim.Result, len(Algorithms)),
			Stats:   make(map[string]core.Stats, 2),
		}
	}
	for k, o := range outcomes {
		row := m.Rows[k/len(Algorithms)]
		row.Results[o.Job.Algorithm] = o.Result
		if risa, ok := o.Scheduler.(*core.RISA); ok {
			row.Stats[o.Job.Algorithm] = risa.Stats()
		}
	}
	return m, nil
}
