// Command risasim reproduces the tables and figures of the RISA paper
// (Kabir et al., SC-W 2023) on the simulated disaggregated datacenter.
//
// Usage:
//
//	risasim -exp all                 # every paper artifact and extension
//	risasim -exp fig5                # one experiment; -h lists the names
//	risasim -exp fig9 -seed 7        # different workload seed
//	risasim -exp fig5 -uplinks 4     # fabric provisioning ablation
//	risasim -exp azure -parallel 8   # experiment grid on 8 workers
//	risasim -exp all -parallel 1     # force strictly serial runs
//	risasim -exp scale               # cluster-size sweep, 18 → 16384 racks
//	risasim -exp scale -racks 288    # sweep capped at 288 racks
//	risasim -exp fig5 -racks 36      # any experiment on a larger cluster
//	risasim -exp churn               # steady-state ladder, 100k arrivals/rung
//	risasim -exp churn -target-util 0.8   # one rung at 80% occupancy
//	risasim -exp churn -duration 50000    # time-capped rungs (smoke)
//	risasim -exp faults              # availability ladder, MTBF × utilization
//	risasim -exp faults -evict       # with displaced-VM recovery
//	risasim -exp faults -mtbf 10000 -mttr 1000   # one custom MTBF rung
//	risasim -exp faults -target-util 0.75 -duration 30000   # quick cell
//	risasim -exp faults -tiers 0.2,0.3,0.5       # priority-tiered arrivals
//	risasim -exp faults -tiers 0.2,0.3,0.5 -preempt  # ... with preemption
//	risasim -exp slo                 # SLO ladder: tiers + preemption × faults × utilization
//	risasim -exp slo -tiers 0.5,0.3,0.2          # custom priority mix
//	risasim -exp churn -clone        # ladder on shared warm snapshots (one warmup per rung)
//	risasim -exp faults -clone       # availability ladder on shared fault-free warm states
//	risasim -exp churn -snapshot warm.gob     # save the warm state, then finish the run
//	risasim -exp churn -restore warm.gob      # resume the saved warm state (skips warmup)
//	risasim -exp churn -cpuprofile cpu.pprof   # profile the hot path
//	risasim -exp all -memprofile mem.pprof     # heap profile on clean exit
//
// The experiment names are listed once, in the catalog below: the -exp
// help text, the all and azure groups and the unknown-name check are
// computed from it. Ladder flags (-clone, -evict, -mtbf, -tiers, -preempt,
// -snapshot/-restore) are rejected on experiments that never read them,
// and so are the flags -snapshot and -restore would ignore. The
// experiment ↔ paper mapping lives in DESIGN.md §5; measured-vs-paper
// numbers are recorded in EXPERIMENTS.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"risa/internal/experiments"
	"risa/internal/report"
	"risa/internal/sim"
	"risa/internal/svc"
	"risa/internal/workload"
)

// options holds the parsed command line; parseArgs keeps it separate from
// main so the flag plumbing is testable.
type options struct {
	exp        string
	seed       int64
	uplinks    int
	parallel   int
	racks      int
	racksSet   bool // -racks given explicitly (an explicit 18 caps the scale ladder)
	jsonPath   string
	duration   int64
	targetUtil float64
	mtbf       int64
	mttr       int64
	evict      bool
	preempt    bool
	tiers      string
	tierMix    workload.TierMix // parsed -tiers (zero when the flag is absent)
	clone      bool
	snapshot   string
	restore    string
	cpuprofile string
	memprofile string
}

// parseArgs parses and validates the command line.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("risasim", flag.ContinueOnError)
	fs.StringVar(&o.exp, "exp", "all", "experiment to run: "+strings.Join(experimentNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload generation seed")
	fs.IntVar(&o.uplinks, "uplinks", 0, "override box uplinks per box (0 = calibrated default)")
	fs.IntVar(&o.parallel, "parallel", 0, "worker-pool width for experiment grids (0 = one per CPU, 1 = serial)")
	fs.IntVar(&o.racks, "racks", 18, "cluster size in racks; for -exp scale, the sweep's largest point")
	fs.StringVar(&o.jsonPath, "json", "", "also archive every run as a JSON report at this path")
	fs.Int64Var(&o.duration, "duration", 0, "for -exp churn/faults/slo: cap each cell's simulated time in time units (0 = churn: arrival budget only, faults/slo: 50000)")
	fs.Float64Var(&o.targetUtil, "target-util", 0, "for -exp churn/faults/slo: run one utilization rung at this binding-occupancy fraction instead of the ladder (>= 1 sustains overload, 0 = full ladder)")
	fs.Int64Var(&o.mtbf, "mtbf", 0, "for -exp faults/slo: per-box mean time between failures in time units (0 = default calm/storm MTBF ladder)")
	fs.Int64Var(&o.mttr, "mttr", experiments.DefaultFaultMTTR, "for -exp faults/slo: per-box mean time to repair in time units")
	fs.BoolVar(&o.evict, "evict", false, "for -exp faults: evict VMs from failed hardware and re-place them through the scheduler (default: VMs ride out outages in place)")
	fs.BoolVar(&o.preempt, "preempt", false, "for -exp faults: let higher-tier arrivals preempt strictly-lower-tier residents when placement fails (victims re-enter through the retry queue; pair with -tiers)")
	fs.StringVar(&o.tiers, "tiers", "", "for -exp faults/slo: priority mix as three comma-separated weights, highest tier first (e.g. 0.2,0.3,0.5; empty = faults untiered, slo default mix)")
	fs.BoolVar(&o.clone, "clone", false, "for -exp churn/faults: share one warm state per rung across all algorithm cells instead of warming each cell separately (controlled comparison; not comparable to the fresh-warmup ladder)")
	fs.StringVar(&o.snapshot, "snapshot", "", "for -exp churn: warm one RISA cell, save its warm state to this file, then finish the run")
	fs.StringVar(&o.restore, "restore", "", "for -exp churn: resume a warm state saved by -snapshot, skipping the warmup")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on clean exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	o.racksSet = set["racks"]
	if o.racks < 1 {
		return o, fmt.Errorf("-racks must be at least 1, got %d", o.racks)
	}
	if o.parallel < 0 {
		return o, fmt.Errorf("-parallel must be non-negative, got %d", o.parallel)
	}
	if o.uplinks < 0 {
		return o, fmt.Errorf("-uplinks must be non-negative, got %d", o.uplinks)
	}
	if o.duration < 0 {
		return o, fmt.Errorf("-duration must be non-negative, got %d", o.duration)
	}
	if o.targetUtil < 0 || o.targetUtil > 4 {
		return o, fmt.Errorf("-target-util must be 0 (full ladder) or in (0, 4], got %g", o.targetUtil)
	}
	if o.mtbf < 0 {
		return o, fmt.Errorf("-mtbf must be non-negative, got %d", o.mtbf)
	}
	if o.mttr <= 0 {
		return o, fmt.Errorf("-mttr must be positive, got %d", o.mttr)
	}
	if !slices.Contains(experimentNames(), o.exp) {
		return o, fmt.Errorf("unknown experiment %q (-exp takes one of: %s)", o.exp, strings.Join(experimentNames(), ", "))
	}
	// A ladder flag on an experiment that never reads it is a mistake, not
	// something to ignore silently.
	for _, f := range []struct {
		set  bool
		flag string
		exps []string
		note string
	}{
		{o.clone, "-clone", []string{"churn", "faults"}, ""},
		{o.evict, "-evict", []string{"faults"}, " (the slo experiment always evicts)"},
		{o.preempt, "-preempt", []string{"faults"}, " (the slo experiment always preempts)"},
		{o.mtbf > 0, "-mtbf", []string{"faults", "slo"}, ""},
		{o.tiers != "", "-tiers", []string{"faults", "slo"}, ""},
		{o.snapshot != "" || o.restore != "", "-snapshot/-restore", []string{"churn"}, ""},
	} {
		if f.set && !slices.Contains(f.exps, o.exp) {
			return o, fmt.Errorf("%s requires -exp %s%s, got -exp %s", f.flag, strings.Join(f.exps, " or -exp "), f.note, o.exp)
		}
	}
	if o.tiers != "" {
		mix, err := parseTiers(o.tiers)
		if err != nil {
			return o, err
		}
		o.tierMix = mix
	}
	if o.snapshot != "" && o.restore != "" {
		return o, fmt.Errorf("-snapshot and -restore are mutually exclusive")
	}
	// -snapshot and -restore run one cell of their own: no ladder and no
	// JSON archive, and a restored cell is the one its file describes.
	mode, ignored := "-snapshot", []string{"json", "clone"}
	if o.restore != "" {
		mode, ignored = "-restore", append(ignored, "racks", "seed", "uplinks", "target-util", "duration")
	}
	if o.snapshot != "" || o.restore != "" {
		for _, name := range ignored {
			if set[name] {
				return o, fmt.Errorf("-%s is ignored by %s (one RISA churn cell, no ladder and no JSON archive; -restore takes the cell from its file)", name, mode)
			}
		}
	}
	return o, nil
}

// parseTiers parses the -tiers flag: exactly workload.NumTiers
// comma-separated non-negative weights, highest-priority tier first, at
// least one of them positive. Weights are relative — they need not sum
// to 1.
func parseTiers(s string) (workload.TierMix, error) {
	var mix workload.TierMix
	parts := strings.Split(s, ",")
	if len(parts) != workload.NumTiers {
		return mix, fmt.Errorf("-tiers needs exactly %d comma-separated weights, got %q", workload.NumTiers, s)
	}
	for i, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return mix, fmt.Errorf("-tiers weight %d: %w", i, err)
		}
		mix.Weights[i] = w
	}
	if err := mix.Validate(); err != nil {
		return mix, fmt.Errorf("-tiers: %w", err)
	}
	if !mix.Enabled() {
		return mix, fmt.Errorf("-tiers needs at least one positive weight, got %q", s)
	}
	return mix, nil
}

// ladderConfig turns the ladder flags into the configuration of whichever
// steady-state ladder -exp names (zero fields select that ladder's
// defaults): time-capped by -duration, narrowed to one utilization rung by
// -target-util and — for faults and slo, the ladders with a fault axis —
// to the fault-free baseline plus one rung by -mtbf.
func ladderConfig(o options) experiments.LadderConfig {
	cfg := experiments.LadderConfig{Duration: o.duration, Evict: o.evict, Preempt: o.preempt, Tiers: o.tierMix, Clone: o.clone}
	if o.targetUtil > 0 {
		// %.4g keeps labels clean for fractions like 0.55, where
		// targetUtil*100 is not exactly 55 in float64.
		cfg.Util = []experiments.ChurnRung{{Label: fmt.Sprintf("%.4g%%", o.targetUtil*100), Target: o.targetUtil}}
	}
	if o.exp == "faults" || o.exp == "slo" {
		cfg.Faults = experiments.DefaultFaultRungs(o.mttr)
		if o.mtbf > 0 {
			cfg.Faults = []experiments.FaultRung{
				{Label: "none"},
				{Label: fmt.Sprintf("mtbf=%d", o.mtbf), MTBF: o.mtbf, MTTR: o.mttr},
			}
		}
	}
	return cfg
}

// scaleMaxRacks returns the largest point of the -exp scale ladder: the
// -racks flag when given explicitly, the 16384-rack default otherwise.
func scaleMaxRacks(o options) int {
	if o.racksSet {
		return o.racks
	}
	return experiments.DefaultScaleMaxRacks
}

// buildSetup turns the options into the experiment setup they describe.
func buildSetup(o options) experiments.Setup {
	setup := experiments.DefaultSetup()
	setup.Seed = o.seed
	setup.Topology.Racks = o.racks
	if o.uplinks > 0 {
		setup.Network.BoxUplinks = o.uplinks
	}
	return setup
}

// profiles holds the open pprof outputs of one invocation; the zero value
// means profiling is off. stop is idempotent (sync.Once) because both the
// clean exit path and the signal handler flush profiles, in either order.
type profiles struct {
	cpu, mem *os.File
	once     sync.Once
	err      error
}

// startProfiles validates the -cpuprofile/-memprofile paths by creating
// the files up front — a bad path must fail before the experiments run,
// not after — and starts the CPU profile.
func startProfiles(o options) (*profiles, error) {
	p := &profiles{}
	var err error
	if o.cpuprofile != "" {
		if p.cpu, err = os.Create(o.cpuprofile); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(p.cpu); err != nil {
			p.cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if o.memprofile != "" {
		if p.mem, err = os.Create(o.memprofile); err != nil {
			if p.cpu != nil {
				pprof.StopCPUProfile()
				p.cpu.Close()
			}
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	return p, nil
}

// stop finishes the CPU profile and writes the heap profile. It runs on
// clean exits and on SIGINT/SIGTERM — an interrupted profiling run keeps
// the samples gathered so far instead of losing the files — but never on
// error exits, so a failed experiment cannot leave a truncated profile
// masquerading as a complete one.
func (p *profiles) stop() error {
	p.once.Do(func() { p.err = p.flush() })
	return p.err
}

func (p *profiles) flush() error {
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if p.mem != nil {
		runtime.GC() // settle the heap so the profile reflects live data
		if err := pprof.WriteHeapProfile(p.mem); err != nil {
			p.mem.Close()
			return fmt.Errorf("-memprofile: %w", err)
		}
		if err := p.mem.Close(); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}

func main() {
	opts, err := parseArgs(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h/-help: usage already printed, a clean exit
		}
		fmt.Fprintf(os.Stderr, "risasim: %v\n", err)
		os.Exit(2)
	}
	experiments.SetParallelism(opts.parallel)
	setup := buildSetup(opts)

	prof, err := startProfiles(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "risasim: %v\n", err)
		os.Exit(2)
	}
	// SIGINT/SIGTERM (the daemon's signal plumbing, svc.NotifyShutdown):
	// flush the pprof outputs before exiting so an interrupted profiling
	// run keeps its samples. The -snapshot save path needs no handling —
	// it writes its file atomically at the end of the warm run, so an
	// interrupt aborts it cleanly rather than leaving a truncated state.
	sigC, release := svc.NotifyShutdown()
	defer release()
	go func() {
		sig := <-sigC
		fmt.Fprintf(os.Stderr, "risasim: %v — flushing profiles before exit\n", sig)
		if err := prof.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "risasim: %v\n", err)
		}
		code := 1
		if s, ok := sig.(syscall.Signal); ok {
			code = 128 + int(s)
		}
		os.Exit(code)
	}()
	if opts.jsonPath != "" {
		archive = report.NewDocument(opts.seed)
	}
	if opts.snapshot != "" || opts.restore != "" {
		err := error(nil)
		if opts.snapshot != "" {
			err = runSnapshotSave(opts, opts.snapshot)
		} else {
			err = runSnapshotRestore(opts.restore)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "risasim: %v\n", err)
			os.Exit(1)
		}
		if err := prof.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "risasim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(setup, opts.exp, scaleMaxRacks(opts), ladderConfig(opts)); err != nil {
		fmt.Fprintf(os.Stderr, "risasim: %v\n", err)
		os.Exit(1)
	}
	if err := prof.stop(); err != nil {
		fmt.Fprintf(os.Stderr, "risasim: %v\n", err)
		os.Exit(1)
	}
	if archive != nil {
		f, err := os.Create(opts.jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "risasim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := archive.Write(f); err != nil {
			fmt.Fprintf(os.Stderr, "risasim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("JSON report written to %s (%d runs)\n", opts.jsonPath, len(archive.Runs))
	}
}

// archive collects every simulation result of the invocation when -json
// is given.
var archive *report.Document

// record adds results to the archive if one is active.
func record(results map[string]*sim.Result) {
	if archive == nil {
		return
	}
	for _, r := range results {
		archive.Add(r)
	}
}

// experiment is one -exp name: whether -exp all includes it, whether it is
// one of the practical-workload figures -exp azure selects, and what it
// runs and prints.
type experiment struct {
	name       string
	all, azure bool
	run        func(*invocation) error
}

// invocation is what a catalog entry runs against.
type invocation struct {
	setup    experiments.Setup
	scaleMax int // largest point of the -exp scale ladder
	ladder   experiments.LadderConfig
	matrix   *experiments.AzureMatrix // shared by the azure figures, computed on first use
}

// catalog lists every experiment once, in -exp all's printing order; the
// -exp help text, the all and azure groups and the unknown-name check are
// all computed from it.
var catalog = []experiment{
	{name: "toy1", all: true, run: func(*invocation) error { return printed(experiments.RunToy1()) }},
	{name: "toy2", all: true, run: func(*invocation) error { return printed(experiments.RunToy2()) }},
	{name: "fig5", all: true, run: func(in *invocation) error {
		f, err := in.setup.RunFig5()
		if err == nil {
			record(f.Results)
		}
		return rendered(f, err)
	}},
	{name: "fig6", all: true, run: func(in *invocation) error { return rendered(in.setup.RunFig6()) }},
	{name: "fig7", all: true, azure: true, run: azureFigure((*experiments.AzureMatrix).RenderFig7)},
	{name: "fig8", all: true, azure: true, run: azureFigure((*experiments.AzureMatrix).RenderFig8)},
	{name: "fig9", all: true, azure: true, run: azureFigure((*experiments.AzureMatrix).RenderFig9)},
	{name: "fig10", all: true, azure: true, run: azureFigure((*experiments.AzureMatrix).RenderFig10)},
	{name: "fig11", all: true, run: func(in *invocation) error { return rendered(in.setup.RunFig11()) }},
	{name: "fig12", all: true, azure: true, run: azureFigure((*experiments.AzureMatrix).RenderFig12)},
	{name: "seeds", run: func(in *invocation) error { return rendered(in.setup.RunSeedSweep([]int64{1, 2, 3, 4, 5})) }},
	{name: "scale", run: func(in *invocation) error {
		return rendered(in.setup.RunScale(experiments.ScaleLadder(in.scaleMax), 0))
	}},
	{name: "churn", run: ladder(experiments.Setup.RunChurn, (*experiments.Ladder).RenderChurn)},
	{name: "faults", run: ladder(experiments.Setup.RunFaults, (*experiments.Ladder).RenderFaults)},
	{name: "slo", run: ladder(experiments.Setup.RunSLO, (*experiments.Ladder).RenderSLO)},
	{name: "threetier", all: true, run: func(in *invocation) error { return rendered(in.azureSetup().RunThreeTier()) }},
	{name: "queue", all: true, run: func(in *invocation) error { return rendered(in.setup.RunQueueing()) }},
	{name: "stranding", all: true, run: func(in *invocation) error { return rendered(in.setup.RunStranding()) }},
	{name: "defrag", all: true, run: func(in *invocation) error { return rendered(in.azureSetup().RunDefrag(2000)) }},
	{name: "resilience", all: true, run: func(in *invocation) error { return rendered(in.azureSetup().RunResilience()) }},
	{name: "pool", all: true, run: func(in *invocation) error { return rendered(in.setup.RunPoolOccupancy()) }},
	{name: "ablations", all: true, run: func(in *invocation) error { return runAblations(in.setup) }},
}

// experimentNames returns every value -exp accepts: the catalog's names
// and the two groups.
func experimentNames() []string {
	names := make([]string, 0, len(catalog)+2)
	for _, e := range catalog {
		names = append(names, e.name)
	}
	return append(names, "azure", "all")
}

// run executes the experiment, or group of experiments, exp names against
// the setup; scaleMax is the largest point of the -exp scale ladder (≤ 0
// selects the 16384-rack default) and ladder the configuration of the
// churn, faults or slo ladder (the zero value selects its defaults).
func run(setup experiments.Setup, exp string, scaleMax int, ladder experiments.LadderConfig) error {
	if scaleMax <= 0 {
		scaleMax = experiments.DefaultScaleMaxRacks
	}
	in := &invocation{setup: setup, scaleMax: scaleMax, ladder: ladder}
	known := false
	for _, e := range catalog {
		if e.name == exp || (exp == "all" && e.all) || (exp == "azure" && e.azure) {
			known = true
			if err := e.run(in); err != nil {
				return err
			}
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// azureSetup switches to the storage-heavy rack composition of the
// practical-workload experiments (see experiments.AzureSetup), keeping the
// caller's seed, cluster size and fabric overrides.
func (in *invocation) azureSetup() experiments.Setup { return experiments.AzureSetupFrom(in.setup) }

// azureFigure is the catalog entry of a figure drawn from the shared Azure
// result matrix.
func azureFigure(render func(*experiments.AzureMatrix) string) func(*invocation) error {
	return func(in *invocation) error {
		if in.matrix == nil {
			m, err := in.azureSetup().RunAzureMatrix()
			if err != nil {
				return err
			}
			for _, perAlg := range m.Results {
				record(perAlg)
			}
			in.matrix = m
		}
		fmt.Println(render(in.matrix))
		return nil
	}
}

// ladder is the catalog entry of a steady-state ladder: one of the three
// default-sets and its table.
func ladder(run func(experiments.Setup, experiments.LadderConfig) (*experiments.Ladder, error), render func(*experiments.Ladder) string) func(*invocation) error {
	return func(in *invocation) error {
		l, err := run(in.setup, in.ladder)
		if err != nil {
			return err
		}
		fmt.Println(render(l))
		return nil
	}
}

// printed prints an experiment's text unless it failed.
func printed(out string, err error) error {
	if err == nil {
		fmt.Println(out)
	}
	return err
}

// rendered prints an experiment's result unless it failed.
func rendered[R interface{ Render() string }](res R, err error) error {
	if err != nil {
		return err
	}
	return printed(res.Render(), nil)
}

// runAblations executes the DESIGN.md §6 design-choice studies.
func runAblations(setup experiments.Setup) error {
	rr, err := setup.RunRoundRobinAblation(900)
	if err != nil {
		return err
	}
	fmt.Println(rr.Render())
	packing, err := setup.RunPackingAblation()
	if err != nil {
		return err
	}
	fmt.Println(packing.Render())
	sweep, err := setup.RunUplinkSweep([]int{2, 4, 8, 16})
	if err != nil {
		return err
	}
	fmt.Println(sweep.Render())
	alpha, err := setup.RunAlphaSweep([]float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0})
	if err != nil {
		return err
	}
	fmt.Println(alpha.Render())
	mix, err := setup.RunBoxMixAblation()
	if err != nil {
		return err
	}
	fmt.Println(mix.Render())
	return nil
}
