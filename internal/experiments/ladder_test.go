package experiments

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"risa/internal/sim"
	"risa/internal/units"
	"risa/internal/workload"
)

// stripSS zeroes one cell's wall-clock observations so the rest of the
// struct can be compared bit-for-bit across runs.
func stripSS(r *sim.SteadyState) {
	r.SchedulingTime, r.WallTime = 0, 0
	r.LatencyP50, r.LatencyP95, r.LatencyP99 = 0, 0, 0
	r.ReplaceP50, r.ReplaceP95, r.ReplaceP99 = 0, 0, 0
	for t := range r.Tiers {
		r.Tiers[t].LatencyP50, r.Tiers[t].LatencyP95, r.Tiers[t].LatencyP99 = 0, 0, 0
	}
}

// atPoolWidths runs the same ladder serially and on a 4-worker pool and
// returns both grids with their wall-clock fields stripped.
func atPoolWidths(t *testing.T, run func() (*Ladder, error)) (serial, pooled *Ladder) {
	t.Helper()
	defer SetParallelism(Parallelism())
	grids := make([]*Ladder, 2)
	for i, width := range []int{1, 4} {
		SetParallelism(width)
		l, err := run()
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range l.Cells {
			stripSS(cell.Result)
		}
		grids[i] = l
	}
	return grids[0], grids[1]
}

// smallChurn is a ladder small enough for unit tests: two rungs,
// duration-capped so each cell stays in the thousands of arrivals.
func smallChurn() LadderConfig {
	return LadderConfig{
		Arrivals: 20000,
		Duration: 40000,
		Util: []ChurnRung{
			{Label: "55%", Target: 0.55},
			{Label: "overload", Target: 1.20},
		},
	}
}

// cloneChurn keeps the clone-mode grid small: one rung, the default
// cloneWindows budget (no Duration).
func cloneChurn() LadderConfig {
	return LadderConfig{Arrivals: 20000, Util: []ChurnRung{{Label: "60%", Target: 0.60}}, Clone: true}
}

// quickFaults is one small cell per knob so the grid stays fast.
func quickFaults() LadderConfig {
	return LadderConfig{
		Arrivals: 4000,
		Duration: 20000,
		Util:     []ChurnRung{{Label: "60%", Target: 0.6}},
		Faults:   []FaultRung{{Label: "smoke", MTBF: 4000, MTTR: 500}},
		Evict:    true,
	}
}

// ladderDigestGrids are the small grids TestLadderDigests pins, keyed as
// in testdata/ladder_digests.txt.
func ladderDigestGrids() map[string]func(Setup) (*Ladder, error) {
	// quickFaults plus the fault-free baseline rung, at the given target.
	faultsAt := func(target float64, evict bool) LadderConfig {
		cfg := quickFaults()
		cfg.Util[0].Target, cfg.Evict = target, evict
		cfg.Faults = append([]FaultRung{{Label: "none"}}, cfg.Faults...)
		return cfg
	}
	evict, clone, tiered := faultsAt(0.6, true), faultsAt(0.6, true), faultsAt(0.9, false)
	clone.Clone = true
	tiered.Tiers, tiered.Preempt = workload.TierMix{Weights: [workload.NumTiers]float64{0.2, 0.3, 0.5}}, true
	return map[string]func(Setup) (*Ladder, error){
		"churn":                func(s Setup) (*Ladder, error) { return s.RunChurn(smallChurn()) },
		"churn-clone":          func(s Setup) (*Ladder, error) { return s.RunChurn(cloneChurn()) },
		"faults-evict":         func(s Setup) (*Ladder, error) { return s.RunFaults(evict) },
		"faults-clone":         func(s Setup) (*Ladder, error) { return s.RunFaults(clone) },
		"faults-tiers-preempt": func(s Setup) (*Ladder, error) { return s.RunFaults(tiered) },
		"slo":                  func(s Setup) (*Ladder, error) { return s.RunSLO(faultsAt(0.9, false)) },
	}
}

// TestLadderDigests pins every cell of six small ladders against
// digests recorded with the per-experiment runners this package had
// before runLadder (commit 38bfc38): the sha256 of the %+v rendering of
// each cell's wall-clock-stripped SteadyState. A mismatch means a ladder's
// placements, counters or windows moved — regenerate the file only when
// that is the point of the change.
//
// SteadyState carried two agent-mode counters when the digests were
// recorded, always zero on the serial runs pinned here; the rendering
// puts them back so the rows stay the recorded ones.
func TestLadderDigests(t *testing.T) {
	f, err := os.Open("testdata/ladder_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]string{} // grid → "algorithm digest" per cell
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		var grid, alg, digest string
		var i int
		if _, err := fmt.Sscan(sc.Text(), &grid, &i, &alg, &digest); err != nil || i != len(want[grid]) {
			t.Fatalf("bad digest line %q (%v)", sc.Text(), err)
		}
		want[grid] = append(want[grid], alg+" "+digest)
	}
	grids := ladderDigestGrids()
	if len(want) != len(grids) {
		t.Fatalf("digest file pins %d grids, the test runs %d", len(want), len(grids))
	}
	for name, run := range grids {
		l, err := run(DefaultSetup())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(l.Cells) != len(want[name]) {
			t.Fatalf("%s: %d cells, digest file has %d", name, len(l.Cells), len(want[name]))
		}
		for i, cell := range l.Cells {
			stripSS(cell.Result)
			rendered := strings.Replace(fmt.Sprintf("%+v", *cell.Result),
				" SchedulingTime:", " AgentCommits:0 AgentConflicts:0 SchedulingTime:", 1)
			got := fmt.Sprintf("%s %x", cell.Algorithm, sha256.Sum256([]byte(rendered)))
			if got != want[name][i] {
				t.Errorf("%s cell %d (%s/%s): got %s, want %s",
					name, i, cell.Fault.Label, cell.Util.Label, got, want[name][i])
			}
		}
	}
}

func TestRunChurnLadder(t *testing.T) {
	c, err := DefaultSetup().RunChurn(smallChurn())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Cells) != 2*len(Algorithms) {
		t.Fatalf("cells = %d, want %d", len(c.Cells), 2*len(Algorithms))
	}
	for _, cell := range c.Cells {
		r := cell.Result
		if r == nil {
			t.Fatalf("%s/%s: no result", cell.Util.Label, cell.Algorithm)
		}
		if r.Arrivals == 0 || len(r.Windows) == 0 {
			t.Fatalf("%s/%s: empty measurement (%d arrivals, %d windows)",
				cell.Util.Label, cell.Algorithm, r.Arrivals, len(r.Windows))
		}
		if r.Arrivals != r.Accepted+r.Dropped {
			t.Errorf("%s/%s: %d arrivals != %d accepted + %d dropped",
				cell.Util.Label, cell.Algorithm, r.Arrivals, r.Accepted, r.Dropped)
		}
		switch cell.Util.Label {
		case "55%":
			if r.Dropped != 0 {
				t.Errorf("55%%/%s: %d drops at a comfortable operating point", cell.Algorithm, r.Dropped)
			}
			// The controller holds the binding resource near target.
			util := r.AvgUtil[units.CPU]
			if r.AvgUtil[units.RAM] > util {
				util = r.AvgUtil[units.RAM]
			}
			if util < 40 || util > 70 {
				t.Errorf("55%%/%s: binding utilization %.1f%%, want near 55", cell.Algorithm, util)
			}
		case "overload":
			if r.Dropped == 0 {
				t.Errorf("overload/%s: no drops while overloaded", cell.Algorithm)
			}
			acc := float64(r.Accepted) / float64(r.Arrivals)
			if acc < 0.70 || acc > 0.99 {
				t.Errorf("overload/%s: acceptance %.2f, want the 1/1.2-ish overload regime", cell.Algorithm, acc)
			}
		}
	}
	out := c.RenderChurn()
	for _, want := range []string{"rung 55%", "rung overload", "RISA-BF", "acc%/win"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestChurnDeterministicAcrossParallelism pins that the placement-side
// results of the churn grid are independent of the worker-pool width
// (only wall-clock fields may differ).
func TestChurnDeterministicAcrossParallelism(t *testing.T) {
	cfg := LadderConfig{Arrivals: 5000, Duration: 30000, Util: []ChurnRung{{Label: "60%", Target: 0.60}}}
	serial, pooled := atPoolWidths(t, func() (*Ladder, error) { return DefaultSetup().RunChurn(cfg) })
	if !reflect.DeepEqual(serial, pooled) {
		t.Error("churn grid differs between -parallel 1 and a 4-worker pool")
	}
}

func TestRunChurnValidation(t *testing.T) {
	bad := map[string]LadderConfig{
		"negative arrivals":   {Arrivals: -1},
		"zero target":         {Util: []ChurnRung{{Label: "bad", Target: 0}}},
		"fault axis on churn": {Faults: DefaultFaultRungs(0)},
		"negative tier":       {Tiers: workload.TierMix{Weights: [workload.NumTiers]float64{-1, 1, 1}}},
	}
	for name, cfg := range bad {
		if _, err := DefaultSetup().RunChurn(cfg); err == nil {
			t.Errorf("%s must fail", name)
		}
	}
}

// TestNewCell: the cell constructor hands back a runner and stream that
// RunStream drives to the arrival budget, and refuses what it cannot
// build.
func TestNewCell(t *testing.T) {
	runner, stream, err := DefaultSetup().NewCell("RISA", 0.5, workload.TierMix{}, sim.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunStream(stream,
		sim.StreamConfig{Workload: sim.StreamWorkload{MaxArrivals: 2000}, Windows: sim.StreamWindows{Window: 3000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalArrivals != 2000 {
		t.Errorf("arrivals = %d, want 2000", res.TotalArrivals)
	}
	if res.PlacementsPerSec() <= 0 {
		t.Error("placements/sec should be positive")
	}
	if _, _, err := DefaultSetup().NewCell("nope", 0.5, workload.TierMix{}, sim.Faults{}); err == nil {
		t.Error("unknown algorithm must fail")
	}
	if _, _, err := DefaultSetup().NewCell("RISA", 0, workload.TierMix{}, sim.Faults{}); err == nil {
		t.Error("zero target must fail")
	}
	if _, _, err := DefaultSetup().NewCell("RISA", 0.5, workload.TierMix{}, sim.Faults{Evict: true}); err == nil {
		t.Error("a fault surface the runner refuses (Evict without a plan) must fail")
	}
}

// TestChurnCloneDeterministicAcrossPoolWidths: the clone-mode churn
// grid — shared warm snapshots and all — is bit-identical between a
// serial run and a 4-worker pool.
func TestChurnCloneDeterministicAcrossPoolWidths(t *testing.T) {
	serial, pooled := atPoolWidths(t, func() (*Ladder, error) { return DefaultSetup().RunChurn(cloneChurn()) })
	if !reflect.DeepEqual(serial, pooled) {
		t.Error("clone-mode churn grid differs between -parallel 1 and a 4-worker pool")
	}
	if !serial.Config.Clone || serial.Config.Duration == 0 {
		t.Errorf("clone grid reports Clone=%v Duration=%d, want the derived cap", serial.Config.Clone, serial.Config.Duration)
	}
	for _, cell := range serial.Cells {
		if cell.Result.Algorithm != cell.Algorithm {
			t.Errorf("cell labelled %s reports algorithm %s", cell.Algorithm, cell.Result.Algorithm)
		}
		if len(cell.Result.Windows) < cloneWindows {
			t.Errorf("%s: %d complete windows, want the full budget of %d",
				cell.Algorithm, len(cell.Result.Windows), cloneWindows)
		}
	}
	if out := serial.RenderChurn(); !strings.Contains(out, "clone mode") {
		t.Errorf("clone-mode render missing provenance note:\n%s", out)
	}
}

// TestChurnCloneMatchesFreshForWarmAlgorithm: the warm snapshot is
// taken under RISA, so the clone grid's RISA cell must be bit-identical
// (wall clock aside) to a fresh single-cell run of the same stream
// budget — the experiments-level restatement of the snapshot-vs-fresh
// equivalence contract.
func TestChurnCloneMatchesFreshForWarmAlgorithm(t *testing.T) {
	cfg := cloneChurn()
	cfg.Duration = 50000 // explicit, so the fresh cell can reuse it
	grid, err := DefaultSetup().RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmup, window := ChurnPhases(cfg.Duration)
	runner, stream, err := DefaultSetup().NewCell("RISA", cfg.Util[0].Target, workload.TierMix{}, sim.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := runner.RunStream(stream, sim.StreamConfig{
		Workload: sim.StreamWorkload{MaxArrivals: cfg.Arrivals, Duration: cfg.Duration},
		Windows:  sim.StreamWindows{Warmup: warmup, Window: window},
	})
	if err != nil {
		t.Fatal(err)
	}
	var cloned *sim.SteadyState
	for _, cell := range grid.Cells {
		if cell.Algorithm == "RISA" {
			cloned = cell.Result
		}
	}
	if cloned == nil {
		t.Fatal("no RISA cell in the clone grid")
	}
	stripSS(cloned)
	stripSS(fresh)
	if !reflect.DeepEqual(cloned, fresh) {
		t.Errorf("cloned RISA cell differs from a fresh run of the same budget:\ncloned: %+v\nfresh:  %+v",
			cloned, fresh)
	}
}

// displaced sums the displaced-VM counter over a grid: a fault fixture
// that displaces nothing proves nothing.
func displaced(l *Ladder) (n int) {
	for _, cell := range l.Cells {
		n += cell.Result.Displaced
	}
	return n
}

// TestFaultsLadderDeterministicAcrossPoolWidths: the availability grid
// is bit-identical between a serial run and a pool-wide run — same
// plans, same placements, same availability metrics.
func TestFaultsLadderDeterministicAcrossPoolWidths(t *testing.T) {
	serial, pooled := atPoolWidths(t, func() (*Ladder, error) { return DefaultSetup().RunFaults(quickFaults()) })
	if !reflect.DeepEqual(serial, pooled) {
		t.Error("fault ladder differs between -parallel 1 and a 4-worker pool")
	}
	if displaced(serial) == 0 {
		t.Error("fixture too weak: no cell displaced a VM")
	}
}

// TestFaultsCloneDeterministicAcrossPoolWidths: the clone-mode
// availability grid is bit-identical across pool widths, and its cells
// actually see faults (the resumed plans must not be empty).
func TestFaultsCloneDeterministicAcrossPoolWidths(t *testing.T) {
	cfg := quickFaults()
	cfg.Clone = true
	serial, pooled := atPoolWidths(t, func() (*Ladder, error) { return DefaultSetup().RunFaults(cfg) })
	if !reflect.DeepEqual(serial, pooled) {
		t.Error("clone-mode fault ladder differs between -parallel 1 and a 4-worker pool")
	}
	if displaced(serial) == 0 {
		t.Error("fixture too weak: no clone-mode cell displaced a VM")
	}
	if out := serial.RenderFaults(); !strings.Contains(out, "clone mode") {
		t.Errorf("clone-mode render missing provenance note:\n%s", out)
	}
}

// TestSLOLadderDeterministicAcrossPoolWidths: the tiered ladder forces
// eviction and preemption on, fills in the default mix, preempts under
// the storm, and does not depend on the pool width.
func TestSLOLadderDeterministicAcrossPoolWidths(t *testing.T) {
	cfg := quickFaults()
	cfg.Util[0].Target, cfg.Evict = 0.9, false
	// The fault-free rung is where arrivals are decided directly (under
	// the storm they all queue behind retries) and feed the "wall" lines.
	cfg.Faults = append([]FaultRung{{Label: "none"}}, cfg.Faults...)
	serial, pooled := atPoolWidths(t, func() (*Ladder, error) { return DefaultSetup().RunSLO(cfg) })
	if !reflect.DeepEqual(serial, pooled) {
		t.Error("SLO ladder differs between -parallel 1 and a 4-worker pool")
	}
	if c := serial.Config; !c.Evict || !c.Preempt || c.Tiers != workload.DefaultTierMix() {
		t.Errorf("SLO defaults not forced on: %+v", c)
	}
	preempted := 0
	for _, cell := range serial.Cells {
		preempted += cell.Result.Preempted
	}
	if displaced(serial) == 0 || preempted == 0 {
		t.Errorf("fixture too weak: %d displaced, %d preempted", displaced(serial), preempted)
	}
	out := serial.RenderSLO()
	for _, want := range []string{"SLO ladder: priority mix", "rung smoke", "t0worst-win", "wall   RISA t0 decision"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}

// TestFaultsGridShape: the default ladder is rung-major over targets and
// algorithms with a fault-free baseline first.
func TestFaultsGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full default ladder")
	}
	f, err := DefaultSetup().RunFaults(LadderConfig{Arrivals: 2000, Duration: 16000})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(DefaultFaultRungs(0)) * 2 * len(Algorithms)
	if len(f.Cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(f.Cells), wantCells)
	}
	if f.Cells[0].Fault.MTBF != 0 {
		t.Error("first rung should be the fault-free baseline")
	}
	for i, cell := range f.Cells {
		if cell.Algorithm != Algorithms[i%len(Algorithms)] {
			t.Fatalf("cell %d algorithm %s out of order", i, cell.Algorithm)
		}
		if cell.Result == nil {
			t.Fatalf("cell %d has no result", i)
		}
		if cell.Fault.MTBF == 0 && cell.Result.Displaced != 0 {
			t.Errorf("baseline cell %d displaced %d VMs", i, cell.Result.Displaced)
		}
	}
	out := f.RenderFaults()
	for _, want := range []string{"Availability ladder", "rung none", "rung calm", "rung storm", "NULB", "RISA-BF"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q", want)
		}
	}
}

func TestFaultsConfigValidation(t *testing.T) {
	bad := []LadderConfig{
		{Arrivals: -1},
		{Duration: -5},
		{Util: []ChurnRung{{Label: "0%", Target: 0}}},
		{Faults: []FaultRung{{Label: "x", MTBF: 100, MTTR: 0}}},
		{Faults: []FaultRung{{Label: "x", MTBF: -1, MTTR: 10}}},
	}
	for i, cfg := range bad {
		if _, err := DefaultSetup().RunFaults(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestFaultCellKeepRunningVsEvict: the two recovery policies really
// differ — with eviction the displaced counter moves; without it the
// same cell keeps every VM in place.
func TestFaultCellKeepRunningVsEvict(t *testing.T) {
	s := DefaultSetup()
	plan, err := s.faultPlan(FaultRung{Label: "smoke", MTBF: 4000, MTTR: 500}, 20000)
	if err != nil {
		t.Fatal(err)
	}
	run := func(evict bool) *sim.SteadyState {
		runner, stream, err := s.NewCell("RISA", 0.6, workload.TierMix{}, sim.Faults{Plan: plan, Evict: evict})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.RunStream(stream, sim.StreamConfig{
			Workload: sim.StreamWorkload{MaxArrivals: 4000, Duration: 20000},
			Windows:  sim.StreamWindows{Warmup: 5000, Window: 3000},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	keep, evict := run(false), run(true)
	if keep.Displaced != 0 {
		t.Errorf("keep-running cell displaced %d VMs", keep.Displaced)
	}
	if evict.Displaced == 0 {
		t.Error("evict cell displaced nothing")
	}
	// Every displaced VM resolves to exactly one of recovered or lost
	// (DisplacedQueued is a detour marker, not a third outcome).
	if evict.Recovered+evict.DisplacedLost != evict.Displaced {
		t.Errorf("displacement outcomes %d+%d do not sum to %d",
			evict.Recovered, evict.DisplacedLost, evict.Displaced)
	}
}
