package experiments

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
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
	r.ReplaceP95 = 0
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

// ladderDigestGrids are the small grids TestLadderDigests pins, in the
// order of testdata/ladder_digests.txt.
func ladderDigestGrids() []ladderGrid {
	// quickFaults plus the fault-free baseline rung, at the given target.
	faultsAt := func(target float64, evict bool) LadderConfig {
		cfg := quickFaults()
		cfg.Util[0].Target, cfg.Evict = target, evict
		cfg.Faults = append([]FaultRung{{Label: "none"}}, cfg.Faults...)
		return cfg
	}
	evict, tiered := faultsAt(0.6, true), faultsAt(0.9, false)
	tiered.Tiers, tiered.Preempt = workload.TierMix{Weights: [workload.NumTiers]float64{0.2, 0.3, 0.5}}, true
	return []ladderGrid{
		{"churn", func(s Setup) (*Ladder, error) { return s.RunChurn(smallChurn()) }},
		{"faults-evict", func(s Setup) (*Ladder, error) { return s.RunFaults(evict) }},
		{"faults-tiers-preempt", func(s Setup) (*Ladder, error) { return s.RunFaults(tiered) }},
		{"slo", func(s Setup) (*Ladder, error) { return s.RunSLO(faultsAt(0.9, false)) }},
	}
}

// ladderGrid is one named grid of TestLadderDigests.
type ladderGrid struct {
	name string
	run  func(Setup) (*Ladder, error)
}

// ladderDigestFields names, per result type, the fields a cell's digest
// hashes, in order. A field that holds results of a listed type (the
// windows, the tiers) is hashed as its length and then each element's
// own fields. Every other field is listed in ladderWallClockFields.
var ladderDigestFields = map[reflect.Type][]string{
	reflect.TypeFor[sim.SteadyState](): {
		"Algorithm", "Workload", "TotalArrivals", "TotalAccepted", "TotalDropped",
		"Arrivals", "Accepted", "Dropped", "Windows", "AvgUtil", "LatencySamples",
		"Displaced", "Recovered", "DisplacedLost", "ReplaceSamples",
		"Enqueued", "RetrySucceeded", "MeanWait", "Tiers",
		"Preempted", "PreemptRecovered", "PreemptLost", "End", "Resident", "RateMultiplier",
	},
	reflect.TypeFor[sim.WindowStats](): {
		"Start", "End", "Arrivals", "Accepted", "Dropped", "Displaced", "Recovered",
		"TierArrivals", "TierAccepted", "TierPreempted", "AvgUtil",
	},
	reflect.TypeFor[sim.TierStats](): {"Arrivals", "Accepted", "LatencySamples"},
}

// ladderWallClockFields are the result fields the digest leaves out: wall
// clock, which differs from run to run.
var ladderWallClockFields = []string{"SchedulingTime", "WallTime", "LatencyP50", "LatencyP95", "LatencyP99", "ReplaceP95"}

// ladderDigestHeader is the first line of testdata/ladder_digests.txt.
const ladderDigestHeader = "# grid cell algorithm sha256(\"%v|\" of each field ladderDigestFields names); recorded at commit 204ed3a"

// digestFields writes the fields ladderDigestFields names for v's type,
// one "%v|" per value, so floats print exactly.
func digestFields(w io.Writer, v reflect.Value) {
	for _, name := range ladderDigestFields[v.Type()] {
		f := v.FieldByName(name)
		if k := f.Kind(); (k == reflect.Slice || k == reflect.Array) && ladderDigestFields[f.Type().Elem()] != nil {
			fmt.Fprintf(w, "%d|", f.Len())
			for i := range f.Len() {
				digestFields(w, f.Index(i))
			}
			continue
		}
		fmt.Fprintf(w, "%v|", f.Interface())
	}
}

// TestLadderDigests pins every cell of six small ladders against
// testdata/ladder_digests.txt: the sha256 of the fields
// ladderDigestFields names. A mismatch means a ladder's placements,
// counters or windows moved; the test then prints the whole file the tree
// would pin, to be pasted in only when that is the point of the change.
func TestLadderDigests(t *testing.T) {
	data, err := os.ReadFile("testdata/ladder_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := []string{ladderDigestHeader}
	cells := []string{"header"} // what each line of got pins
	for _, g := range ladderDigestGrids() {
		l, err := g.run(DefaultSetup())
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for i, cell := range l.Cells {
			h := sha256.New()
			digestFields(h, reflect.ValueOf(*cell.Result))
			got = append(got, fmt.Sprintf("%s %d %s %x", g.name, i, cell.Algorithm, h.Sum(nil)))
			cells = append(cells, g.name+" "+cell.Fault.Label+"/"+cell.Util.Label)
		}
	}
	for i := range max(len(got), len(want)) {
		switch {
		case i >= len(want):
			t.Errorf("line %d (%s): got %q, missing from the file", i+1, cells[i], got[i])
		case i >= len(got):
			t.Errorf("line %d: file has %q, the grids have no such cell", i+1, want[i])
		case got[i] != want[i]:
			t.Errorf("line %d (%s): got %q, want %q", i+1, cells[i], got[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("the file this tree pins:\n%s", strings.Join(got, "\n"))
	}
}

// TestLadderDigestNamesEveryField fails on a field of the pinned result
// types that ladderDigestFields does not name and ladderWallClockFields
// does not exempt, and on a listed name that is not a field: a new counter
// must join the pin on purpose.
func TestLadderDigestNamesEveryField(t *testing.T) {
	for typ, names := range ladderDigestFields {
		for i := range typ.NumField() {
			name := typ.Field(i).Name
			if !slices.Contains(names, name) && !slices.Contains(ladderWallClockFields, name) {
				t.Errorf("%s.%s is neither digested nor wall clock: add it to ladderDigestFields or ladderWallClockFields", typ, name)
			}
		}
		for _, name := range names {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("ladderDigestFields names %s.%s, which does not exist", typ, name)
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

// TestLadderRefusesCellWithoutArrivals: a duration so short that a
// rung draws no arrival after the warmup cut fails the ladder, naming
// the rung, the algorithm and the duration, instead of printing a row of
// zeros at 100 % acceptance; at 6 every default rung measures one.
func TestLadderRefusesCellWithoutArrivals(t *testing.T) {
	for _, d := range []int64{4, 5} {
		_, churnErr := DefaultSetup().RunChurn(LadderConfig{Duration: d})
		_, faultsErr := DefaultSetup().RunFaults(LadderConfig{Duration: d})
		for name, err := range map[string]error{"churn": churnErr, "faults": faultsErr} {
			want := []string{"NULB at fault rung none, utilization rung 60%", fmt.Sprintf("duration %d", d), "no arrival"}
			for _, w := range want {
				if err == nil || !strings.Contains(err.Error(), w) {
					t.Errorf("%s, duration %d: err = %v, want it to contain %q", name, d, err, w)
				}
			}
		}
	}
	if _, err := DefaultSetup().RunChurn(LadderConfig{Duration: 6}); err != nil {
		t.Errorf("duration 6: %v", err)
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
	// (a retry-queue detour is not a third outcome).
	if evict.Recovered+evict.DisplacedLost != evict.Displaced {
		t.Errorf("displacement outcomes %d+%d do not sum to %d",
			evict.Recovered, evict.DisplacedLost, evict.Displaced)
	}
}
