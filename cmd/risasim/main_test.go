package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"risa/internal/experiments"
)

func quickSetup() experiments.Setup {
	return experiments.DefaultSetup()
}

func TestRunToyExperiments(t *testing.T) {
	for _, exp := range []string{"toy1", "toy2"} {
		if err := run(quickSetup(), exp, 0, experiments.LadderConfig{}); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(quickSetup(), "fig99", 0, experiments.LadderConfig{}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestCatalogDrivesExpNames: every name -exp accepts comes from the
// catalog (plus the two groups), each exactly once, and parseArgs accepts
// them all.
func TestCatalogDrivesExpNames(t *testing.T) {
	names := experimentNames()
	if len(names) != len(catalog)+2 {
		t.Fatalf("%d names for %d catalog entries", len(names), len(catalog))
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("experiment %q listed twice", name)
		}
		seen[name] = true
		if _, err := parseArgs([]string{"-exp", name}); err != nil {
			t.Errorf("parseArgs rejects catalog name %q: %v", name, err)
		}
	}
	for _, e := range catalog {
		if e.azure && !e.all {
			t.Errorf("%s: azure figure missing from -exp all", e.name)
		}
	}
}

func TestRunFig6(t *testing.T) {
	if err := run(quickSetup(), "fig6", 0, experiments.LadderConfig{}); err != nil {
		t.Error(err)
	}
}

func TestRunFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthetic run")
	}
	if err := run(quickSetup(), "fig5", 0, experiments.LadderConfig{}); err != nil {
		t.Error(err)
	}
}

// TestRunPaperGroups runs the paper's figures through run: -exp all prints
// every figure header and the §5.3 table exactly once, -exp azure the
// Azure figures only, and fig11 and pool, which read the synthetic
// matrix, print their own alone.
func TestRunPaperGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper experiment")
	}
	headers := []string{"Figure 5:", "Figure 6:", "Figure 7:", "Figure 8:", "Figure 9:", "Figure 10:", "Figure 11:", "Figure 12:", "§5.3 check:"}
	for _, c := range []struct {
		exp  string
		want []string // headers printed once; the rest never
	}{
		{"all", headers},
		{"azure", []string{"Figure 7:", "Figure 8:", "Figure 9:", "Figure 10:", "Figure 12:"}},
		{"fig11", []string{"Figure 11:"}},
		{"pool", []string{"§5.3 check:"}},
	} {
		out, err := stdoutOf(t, func() error { return run(quickSetup(), c.exp, 0, experiments.LadderConfig{}) })
		if err != nil {
			t.Fatalf("-exp %s: %v", c.exp, err)
		}
		for _, h := range headers {
			want := 0
			if slices.Contains(c.want, h) {
				want = 1
			}
			if got := strings.Count(string(out), h); got != want {
				t.Errorf("-exp %s prints %q %d times, want %d", c.exp, h, got, want)
			}
		}
	}
}

func TestParseArgsDefaults(t *testing.T) {
	o, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.exp != "all" || o.seed != 1 || o.racks != 18 || o.parallel != 0 || o.uplinks != 0 {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

func TestParseArgsFlagPlumbing(t *testing.T) {
	o, err := parseArgs([]string{"-exp", "scale", "-racks", "288", "-parallel", "4", "-seed", "7"})
	if err != nil {
		t.Fatal(err)
	}
	if o.exp != "scale" || o.racks != 288 || o.parallel != 4 || o.seed != 7 {
		t.Errorf("flags not plumbed: %+v", o)
	}
	setup := buildSetup(o)
	if setup.Topology.Racks != 288 {
		t.Errorf("-racks not applied to topology: %d", setup.Topology.Racks)
	}
	if setup.Seed != 7 {
		t.Errorf("-seed not applied: %d", setup.Seed)
	}
}

func TestParseArgsRejectsInvalidValues(t *testing.T) {
	for _, args := range [][]string{
		{"-racks", "0"},
		{"-racks", "-3"},
		{"-parallel", "-1"},
		{"-uplinks", "-2"},
		{"-racks", "x"},
		{"-nosuchflag"},
		// -exp is checked here, against the catalog, before anything
		// (profiles included) is created or run.
		{"-exp", "fig99"},
		{"-exp", ""},
		{"-exp", "fig99", "-cpuprofile", "cpu.pprof"},
		// risasim prints; it writes no archive.
		{"-json", "x"},
		// The toys run the fixed Table 2 datacenter: setup flags would be
		// silently ignored.
		{"-exp", "toy1", "-seed", "7"},
		{"-exp", "toy2", "-racks", "36"},
		{"-exp", "toy1", "-racks", "18"},
		{"-exp", "toy2", "-uplinks", "4"},
		{"-exp", "toy1", "-uplinks", "0"},
		// Figure 6 only generates traces from the seed; the seed sweep
		// sets its own seeds.
		{"-exp", "fig6", "-racks", "36"},
		{"-exp", "fig6", "-uplinks", "4"},
		{"-exp", "seeds", "-seed", "7"},
		// Every option is a flag: a bare word (here a forgotten -exp) is
		// refused, not ignored.
		{"fig5"},
		// A NaN or infinite weight would pass a "< 0" check and put every
		// VM in the last positive tier.
		{"-exp", "slo", "-tiers", "NaN,1,1"},
		{"-exp", "slo", "-tiers", "+Inf,1,1"},
		{"-exp", "churn", "-target-util", "NaN"},
		// A ladder flag is refused when given, whatever its value.
		{"-exp", "toy1", "-evict=false", "-duration", "0"},
		{"-exp", "fig5", "-target-util", "0"},
		{"-exp", "churn", "-mtbf", "0"},
		{"-exp", "churn", "-tiers", ""},
		{"-exp", "slo", "-preempt=false"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%v) should fail", args)
		}
	}
	// -exp all runs the toys beside experiments the setup flags do reach.
	if _, err := parseArgs([]string{"-exp", "all", "-seed", "7", "-racks", "36", "-uplinks", "4"}); err != nil {
		t.Errorf("-exp all with setup flags: %v", err)
	}
}

func TestBuildSetupAppliesUplinkOverride(t *testing.T) {
	o, err := parseArgs([]string{"-uplinks", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if got := buildSetup(o).Network.BoxUplinks; got != 4 {
		t.Errorf("-uplinks not applied: %d", got)
	}
	o, err = parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := buildSetup(o).Network.BoxUplinks; got != experiments.DefaultSetup().Network.BoxUplinks {
		t.Errorf("uplinks default not calibrated: %d", got)
	}
}

func TestScaleMaxRacksFollowsRacksFlag(t *testing.T) {
	o, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := scaleMaxRacks(o); got != experiments.DefaultScaleMaxRacks {
		t.Errorf("default scale max = %d, want %d", got, experiments.DefaultScaleMaxRacks)
	}
	for _, racks := range []string{"288", "18", "4"} {
		o, err := parseArgs([]string{"-racks", racks})
		if err != nil {
			t.Fatal(err)
		}
		// An explicit -racks always caps the ladder, even at the default
		// value: `-racks 18` means a single-point sweep at the paper size.
		if got := scaleMaxRacks(o); fmt.Sprint(got) != racks {
			t.Errorf("scale max with -racks %s = %d", racks, got)
		}
	}
}

func TestRunScaleExperimentWiring(t *testing.T) {
	// A 2-rack "sweep" keeps the wiring test fast: run must accept the
	// scale experiment and render without error.
	setup := quickSetup()
	setup.Topology.Racks = 2
	if err := run(setup, "scale", 2, experiments.LadderConfig{}); err != nil {
		t.Error(err)
	}
}

func TestParseArgsHelpIsErrHelp(t *testing.T) {
	// -h must surface flag.ErrHelp so main can exit 0 after the usage
	// text, not report a spurious error.
	if _, err := parseArgs([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("parseArgs(-h) = %v, want flag.ErrHelp", err)
	}
}

func TestParseArgsChurnFlags(t *testing.T) {
	o, err := parseArgs([]string{"-exp", "churn", "-duration", "50000", "-target-util", "0.8"})
	if err != nil {
		t.Fatal(err)
	}
	if o.exp != "churn" || o.duration != 50000 || o.targetUtil != 0.8 {
		t.Errorf("churn flags not plumbed: %+v", o)
	}
	cfg := ladderConfig(o)
	if cfg.Duration != 50000 {
		t.Errorf("-duration not applied: %d", cfg.Duration)
	}
	if len(cfg.Util) != 1 || cfg.Util[0].Target != 0.8 || cfg.Util[0].Label != "80%" {
		t.Errorf("-target-util not applied: %+v", cfg.Util)
	}
	if len(cfg.Faults) != 0 {
		t.Errorf("the churn ladder must get no fault axis: %+v", cfg.Faults)
	}

	o, err = parseArgs([]string{"-exp", "churn"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := ladderConfig(o); len(cfg.Util) != 0 || cfg.Duration != 0 || len(cfg.Faults) != 0 {
		t.Errorf("default churn config should select the ladder: %+v", cfg)
	}

	for _, args := range [][]string{
		{"-duration", "-1"},
		{"-target-util", "-0.5"},
		{"-target-util", "9"},
		// -duration and -target-util on experiments that never read them.
		{"-exp", "toy1", "-duration", "5"},
		{"-exp", "toy1", "-target-util", "0.5"},
		{"-exp", "fig5", "-duration", "50000"},
		{"-duration", "50000"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%v) should fail", args)
		}
	}
	// The ladders have one protocol; -clone is not a flag.
	if _, err := parseArgs([]string{"-exp", "churn", "-clone"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -clone") {
		t.Errorf("-clone: err = %v, want an undefined flag", err)
	}
}

func TestParseArgsProfileFlags(t *testing.T) {
	o, err := parseArgs([]string{"-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof"})
	if err != nil {
		t.Fatal(err)
	}
	if o.cpuprofile != "cpu.pprof" || o.memprofile != "mem.pprof" {
		t.Errorf("profile flags not plumbed: %+v", o)
	}
	if o, err := parseArgs(nil); err != nil || o.cpuprofile != "" || o.memprofile != "" {
		t.Errorf("profile flags must default to off: %+v (%v)", o, err)
	}
}

func TestProfilesLifecycle(t *testing.T) {
	dir := t.TempDir()
	cpu := dir + "/cpu.pprof"
	mem := dir + "/mem.pprof"
	p, err := startProfiles(options{cpuprofile: cpu, memprofile: mem})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s: empty profile", path)
		}
	}
}

func TestProfilesOffIsNoop(t *testing.T) {
	p, err := startProfiles(options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfilesRejectsBadPaths(t *testing.T) {
	missing := t.TempDir() + "/no/such/dir/out.pprof"
	if _, err := startProfiles(options{cpuprofile: missing}); err == nil {
		t.Error("bad -cpuprofile path must fail up front")
	}
	if _, err := startProfiles(options{memprofile: missing}); err == nil {
		t.Error("bad -memprofile path must fail up front")
	}
	// A bad mem path must not leave a CPU profile running.
	good := t.TempDir() + "/cpu.pprof"
	if _, err := startProfiles(options{cpuprofile: good, memprofile: missing}); err == nil {
		t.Error("bad -memprofile path must fail even with a valid -cpuprofile")
	}
	p, err := startProfiles(options{cpuprofile: good})
	if err != nil {
		t.Fatalf("CPU profiling left running by the failed start: %v", err)
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
}

func TestRunChurnExperimentWiring(t *testing.T) {
	// A short duration-capped ladder keeps the wiring test fast.
	if err := run(quickSetup(), "churn", 0, experiments.LadderConfig{
		Arrivals: 4000,
		Duration: 30000,
		Util:     []experiments.ChurnRung{{Label: "50%", Target: 0.5}},
	}); err != nil {
		t.Error(err)
	}
}

func TestParseArgsFaultFlags(t *testing.T) {
	o, err := parseArgs([]string{"-exp", "faults", "-mtbf", "10000", "-mttr", "500", "-evict", "-target-util", "0.75", "-duration", "30000"})
	if err != nil {
		t.Fatal(err)
	}
	if o.exp != "faults" || o.mtbf != 10000 || o.mttr != 500 || !o.evict {
		t.Errorf("fault flags not plumbed: %+v", o)
	}
	cfg := ladderConfig(o)
	if cfg.Duration != 30000 || !cfg.Evict || cfg.Preempt || cfg.Tiers.Enabled() {
		t.Errorf("fault config not built: %+v", cfg)
	}
	// -mtbf narrows the ladder to the fault-free baseline plus one rung.
	if len(cfg.Faults) != 2 || cfg.Faults[0].MTBF != 0 || cfg.Faults[1].MTBF != 10000 || cfg.Faults[1].MTTR != 500 {
		t.Errorf("-mtbf not applied: %+v", cfg.Faults)
	}
	if len(cfg.Util) != 1 || cfg.Util[0].Target != 0.75 {
		t.Errorf("-target-util not applied: %+v", cfg.Util)
	}

	// Without -mtbf the default rungs come in with -mttr's repair time, for
	// faults and slo alike; -tiers and -preempt ride along.
	for _, exp := range []string{"faults", "slo"} {
		o, err = parseArgs([]string{"-exp", exp, "-mttr", "700", "-tiers", "0.5,0.3,0.2"})
		if err != nil {
			t.Fatal(err)
		}
		cfg = ladderConfig(o)
		if want := experiments.DefaultFaultRungs(700); !reflect.DeepEqual(cfg.Faults, want) {
			t.Errorf("-exp %s -mttr 700: fault axis %+v, want %+v", exp, cfg.Faults, want)
		}
		if cfg.Tiers.Weights != [3]float64{0.5, 0.3, 0.2} || len(cfg.Util) != 0 {
			t.Errorf("-exp %s: -tiers not applied or ladder narrowed: %+v", exp, cfg)
		}
	}
	o, err = parseArgs([]string{"-exp", "faults", "-tiers", "0.2,0.3,0.5", "-preempt"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg = ladderConfig(o); !cfg.Preempt || cfg.Evict {
		t.Errorf("-preempt not applied: %+v", cfg)
	}

	o, err = parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.mttr != experiments.DefaultFaultMTTR || o.evict {
		t.Errorf("fault flag defaults wrong: %+v", o)
	}

	for _, args := range [][]string{
		{"-mtbf", "-5"},
		{"-mttr", "0"},
		{"-mttr", "-2"},
		// Ladder flags on experiments that never read them.
		{"-exp", "churn", "-evict"},
		{"-exp", "slo", "-evict"},
		{"-evict"},
		{"-exp", "churn", "-mtbf", "10000"},
		{"-exp", "churn", "-mttr", "5"},
		{"-exp", "toy1", "-mttr", "500"},
		{"-exp", "fig5", "-mtbf", "10000"},
		{"-exp", "slo", "-preempt"},
		{"-exp", "churn", "-tiers", "0.2,0.3,0.5"},
		{"-exp", "faults", "-tiers", "0.2,0.3"},
		{"-exp", "faults", "-tiers", "0,0,0"},
		{"-exp", "faults", "-tiers", "-1,1,1"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%v) should fail", args)
		}
	}
}

func TestRunFaultsExperimentWiring(t *testing.T) {
	// One short cell: a single MTBF rung at one target, time-capped.
	smoke := experiments.LadderConfig{
		Arrivals: 4000,
		Duration: 20000,
		Util:     []experiments.ChurnRung{{Label: "50%", Target: 0.5}},
		Faults:   []experiments.FaultRung{{Label: "smoke", MTBF: 4000, MTTR: 500}},
		Evict:    true,
	}
	for _, exp := range []string{"faults", "slo"} {
		if err := run(quickSetup(), exp, 0, smoke); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

// TestLadderRefusesDurationWithoutArrivals: a -duration so short that
// a rung measures no arrival fails the run (exit 1), naming the rung,
// the algorithm and the duration, and prints no table of zeros.
func TestLadderRefusesDurationWithoutArrivals(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "churn", "-duration", "4"},
		{"-exp", "faults", "-duration", "4"},
	} {
		o, err := parseArgs(args)
		if err != nil {
			t.Fatal(err)
		}
		out, err := stdoutOf(t, func() error { return run(buildSetup(o), o.exp, scaleMaxRacks(o), ladderConfig(o)) })
		if err == nil || !strings.Contains(err.Error(), "NULB at fault rung none, utilization rung 60%") ||
			!strings.Contains(err.Error(), "duration 4") {
			t.Errorf("%v: err = %v", args, err)
		}
		if len(out) > 0 {
			t.Errorf("%v printed a table:\n%s", args, out)
		}
	}
}

// stdoutOf runs f with os.Stdout redirected and returns what it printed.
func stdoutOf(t *testing.T, f func() error) ([]byte, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := f()
	os.Stdout = stdout
	w.Close()
	return <-printed, runErr
}
