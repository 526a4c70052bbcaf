package experiments

import (
	"math"
	"strings"
	"testing"

	"risa/internal/units"
	"risa/internal/workload"
)

func TestNewSchedulerNames(t *testing.T) {
	st, err := DefaultSetup().NewState()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Algorithms {
		sch, err := NewScheduler(name, st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sch.Name() != name {
			t.Errorf("scheduler %q reports name %q", name, sch.Name())
		}
	}
	if _, err := NewScheduler("SJF", st); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestDefaultSetupBuilds(t *testing.T) {
	s := DefaultSetup()
	if s.Network.BoxUplinks != 16 {
		t.Errorf("calibrated uplinks = %d, want 16", s.Network.BoxUplinks)
	}
	if _, err := s.NewState(); err != nil {
		t.Fatal(err)
	}
}

func TestAzureSetupIsStorageHeavy(t *testing.T) {
	s := AzureSetup()
	if s.Topology.CPUBoxes != 1 || s.Topology.RAMBoxes != 2 || s.Topology.STOBoxes != 3 {
		t.Errorf("AzureSetup mix = %d/%d/%d, want 1/2/3",
			s.Topology.CPUBoxes, s.Topology.RAMBoxes, s.Topology.STOBoxes)
	}
	if s.Topology.BoxesPerRack() != 6 {
		t.Error("rack must still hold 6 boxes (Table 1)")
	}
	if _, err := s.NewState(); err != nil {
		t.Fatal(err)
	}
}

// smallSetup shrinks the workload for fast unit tests.
func smallTrace(t *testing.T, n int) *workload.Trace {
	t.Helper()
	cfg := workload.DefaultSyntheticConfig()
	cfg.N = n
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunOneSmall(t *testing.T) {
	s := DefaultSetup()
	tr := smallTrace(t, 100)
	res, err := s.RunOne("RISA", tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 100 || res.Dropped != 0 {
		t.Errorf("scheduled/dropped = %d/%d", res.Scheduled, res.Dropped)
	}
	if res.Algorithm != "RISA" {
		t.Errorf("algorithm label %q", res.Algorithm)
	}
}

func TestRunOneUnknownAlgorithm(t *testing.T) {
	s := DefaultSetup()
	tr := smallTrace(t, 5)
	if _, err := s.RunOne("nope", tr); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestRunAllDeterministic(t *testing.T) {
	s := DefaultSetup()
	tr := smallTrace(t, 200)
	a, err := s.RunAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if a[alg].InterRack != b[alg].InterRack ||
			a[alg].Scheduled != b[alg].Scheduled ||
			a[alg].PeakPowerW != b[alg].PeakPowerW {
			t.Errorf("%s: runs differ on identical input", alg)
		}
	}
}

func TestToy1MatchesPaper(t *testing.T) {
	out, err := RunToy1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "NULB  → (CPU, RAM, STO) box ids (2, 1, 2)") {
		t.Errorf("NULB toy line missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "RISA  → (CPU, RAM, STO) box ids (2, 2, 2)") {
		t.Errorf("RISA toy line missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "INTER-rack") || !strings.Contains(out, "intra-rack") {
		t.Error("rack classification missing")
	}
}

func TestToy2MatchesPaper(t *testing.T) {
	out, err := RunToy2()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "RISA          0   0   0   1   1   1  NA   1") {
		t.Errorf("RISA row wrong:\n%s", out)
	}
	if !strings.Contains(out, "RISA-BF       1   1   0   0   1   0  NA   0") {
		t.Errorf("RISA-BF row wrong:\n%s", out)
	}
}

func TestToyStateMatchesTable3(t *testing.T) {
	st, err := NewToyState()
	if err != nil {
		t.Fatal(err)
	}
	// Availability per Table 3.
	want := []struct {
		rack, kindIx int
		kind         units.Resource
		free         units.Amount
	}{
		{0, 0, units.CPU, 0}, {0, 1, units.CPU, 0}, {1, 0, units.CPU, 64}, {1, 1, units.CPU, 32},
		{0, 0, units.RAM, 0}, {0, 1, units.RAM, 16}, {1, 0, units.RAM, 32}, {1, 1, units.RAM, 16},
		{0, 0, units.Storage, 0}, {0, 1, units.Storage, 0}, {1, 0, units.Storage, 256}, {1, 1, units.Storage, 512},
	}
	for _, w := range want {
		got := st.Cluster.Rack(w.rack).BoxesOf(w.kind)[w.kindIx].Free()
		if got != w.free {
			t.Errorf("%v r%d/k%d free = %d, want %d", w.kind, w.rack, w.kindIx, got, w.free)
		}
	}
}

func TestFig6MatchesSpecs(t *testing.T) {
	f, err := DefaultSetup().RunFig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Traces) != 3 {
		t.Fatalf("traces = %d", len(f.Traces))
	}
	for i, sub := range workload.Subsets() {
		spec, _ := workload.Spec(sub)
		if f.Traces[i].Len() != spec.N {
			t.Errorf("%v: %d VMs, want %d", sub, f.Traces[i].Len(), spec.N)
		}
	}
	out := f.Render()
	for _, label := range []string{"Azure-3000", "Azure-5000", "Azure-7500", "1326", "6682"} {
		if !strings.Contains(out, label) {
			t.Errorf("Fig6 render missing %q", label)
		}
	}
}

func TestFig5SmokeAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthetic workload run")
	}
	f, err := DefaultSetup().RunFig5()
	if err != nil {
		t.Fatal(err)
	}
	nulb := f.Results["NULB"]
	nalb := f.Results["NALB"]
	risa := f.Results["RISA"]
	risabf := f.Results["RISA-BF"]
	// The paper's Figure 5 shape: hundreds for the baselines, single
	// digits for RISA, RISA-BF ≤ RISA.
	if nulb.InterRack < 100 {
		t.Errorf("NULB inter-rack = %d, expected hundreds", nulb.InterRack)
	}
	if nalb.InterRack < 50 || nalb.InterRack > nulb.InterRack {
		t.Errorf("NALB inter-rack = %d (NULB %d)", nalb.InterRack, nulb.InterRack)
	}
	if risa.InterRack > 10 {
		t.Errorf("RISA inter-rack = %d, expected single digits", risa.InterRack)
	}
	if risabf.InterRack > risa.InterRack {
		t.Errorf("RISA-BF (%d) should not exceed RISA (%d)", risabf.InterRack, risa.InterRack)
	}
	// §5.1: identical compute utilization across algorithms when no one
	// drops; at least RISA variants schedule everything.
	if risa.Dropped != 0 || risabf.Dropped != 0 {
		t.Error("RISA variants should schedule the full synthetic workload")
	}
	out := f.Render()
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "NULB") {
		t.Error("render incomplete")
	}
}

func TestAzureMatrixShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Azure matrix")
	}
	m, err := AzureSetup().RunAzureMatrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range workload.Subsets() {
		res := m.Results[sub]
		// Paper §5.2: zero drops everywhere.
		for _, alg := range Algorithms {
			if res[alg].Dropped != 0 {
				t.Errorf("%v/%s dropped %d VMs", sub, alg, res[alg].Dropped)
			}
		}
		// Figure 7 shape: RISA and RISA-BF place everything intra-rack;
		// the baselines do not.
		if res["RISA"].InterRack != 0 || res["RISA-BF"].InterRack != 0 {
			t.Errorf("%v: RISA variants must have zero inter-rack", sub)
		}
		if res["NULB"].InterRack == 0 || res["NALB"].InterRack == 0 {
			t.Errorf("%v: baselines should produce inter-rack assignments", sub)
		}
		// Figure 8: intra utilization identical across algorithms.
		base := res["NULB"].PeakIntraUtil
		for _, alg := range Algorithms {
			if res[alg].PeakIntraUtil != base {
				t.Errorf("%v: intra util differs (%s %.3f vs %.3f)",
					sub, alg, res[alg].PeakIntraUtil, base)
			}
		}
		// Figure 9: RISA uses less optical power than NULB.
		if res["RISA"].PeakPowerW >= res["NULB"].PeakPowerW {
			t.Errorf("%v: RISA power %.1f ≥ NULB %.1f",
				sub, res["RISA"].PeakPowerW, res["NULB"].PeakPowerW)
		}
		// Figure 10: RISA at the intra-rack latency floor, NULB above it.
		if res["RISA"].MeanCPURAMLatency.Nanoseconds() != 110 {
			t.Errorf("%v: RISA latency %v", sub, res["RISA"].MeanCPURAMLatency)
		}
		if res["NULB"].MeanCPURAMLatency.Nanoseconds() <= 110 {
			t.Errorf("%v: NULB latency should exceed 110ns", sub)
		}
	}
	// Renders.
	for name, out := range map[string]string{
		"fig7":  m.RenderFig7(),
		"fig8":  m.RenderFig8(),
		"fig9":  m.RenderFig9(),
		"fig10": m.RenderFig10(),
		"fig12": m.RenderFig12(),
	} {
		if !strings.Contains(out, "Azure-3000") || !strings.Contains(out, "RISA-BF") {
			t.Errorf("%s render incomplete:\n%s", name, out)
		}
	}
}

func TestRoundRobinAblation(t *testing.T) {
	a, err := DefaultSetup().RunRoundRobinAblation(300)
	if err != nil {
		t.Fatal(err)
	}
	if a.RackRAMStdDev["RISA"] >= a.RackRAMStdDev["RISA-no-RR"] {
		t.Errorf("round-robin should reduce skew: %.2f vs %.2f",
			a.RackRAMStdDev["RISA"], a.RackRAMStdDev["RISA-no-RR"])
	}
	if !strings.Contains(a.Render(), "RISA-no-RR") {
		t.Error("render incomplete")
	}
}

func TestUplinkSweepShowsCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple Azure runs")
	}
	sweep, err := DefaultSetup().RunUplinkSweep([]int{2, 16})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Dropped["NULB"][0] <= sweep.Dropped["NULB"][1] {
		t.Errorf("NULB should drop more with 2 uplinks: %v", sweep.Dropped["NULB"])
	}
	if sweep.Dropped["RISA"][1] != 0 {
		t.Errorf("RISA at 16 uplinks should drop nothing, got %d", sweep.Dropped["RISA"][1])
	}
	if !strings.Contains(sweep.Render(), "uplinks/box") {
		t.Error("render incomplete")
	}
}

func TestAlphaSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple Azure runs")
	}
	sweep, err := DefaultSetup().RunAlphaSweep([]float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.PeakKW[0] >= sweep.PeakKW[1] {
		t.Errorf("power must grow with alpha: %v", sweep.PeakKW)
	}
}

func TestPackingAblationSchedulesEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthetic runs")
	}
	a, err := DefaultSetup().RunPackingAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Order) != 4 {
		t.Fatalf("policies = %v", a.Order)
	}
	for _, name := range a.Order {
		if a.Results[name].Scheduled+a.Results[name].Dropped != 2500 {
			t.Errorf("%s lost VMs", name)
		}
	}
	if !strings.Contains(a.Render(), "next-fit") {
		t.Error("render incomplete")
	}
}

func TestBoxMixAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple Azure runs")
	}
	a, err := DefaultSetup().RunBoxMixAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Mixes) != 4 || a.Mixes[0] != "2C/2R/2S" {
		t.Fatalf("mixes = %v", a.Mixes)
	}
	// The storage-heavy mix must amplify NULB's inter-rack count
	// relative to the balanced mix while RISA stays at zero.
	if a.Inter["NULB"][1] <= a.Inter["NULB"][0] {
		t.Errorf("1C/2R/3S should amplify NULB inter-rack: %v", a.Inter["NULB"])
	}
	for i := range a.Mixes {
		if a.Dropped["RISA"][i] == 0 && a.Inter["RISA"][i] != 0 {
			t.Errorf("RISA inter-rack at mix %s: %d", a.Mixes[i], a.Inter["RISA"][i])
		}
	}
	if !strings.Contains(a.Render(), "1C/2R/3S") {
		t.Error("render incomplete")
	}
}

func TestFig11RendersTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthetic workload run")
	}
	f, err := DefaultSetup().RunFig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if f.Results[alg].SchedulingTime <= 0 {
			t.Errorf("%s has no measured scheduling time", alg)
		}
	}
	if !strings.Contains(f.Render(), "Figure 11") {
		t.Error("render incomplete")
	}
}

func TestResilienceExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("eight Azure runs")
	}
	r, err := AzureSetup().RunResilience()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		h, f := r.Healthy[alg], r.Faulty[alg]
		if h == nil || f == nil {
			t.Fatalf("%s missing results", alg)
		}
		// Losing a rack can only hurt: drops must not decrease.
		if f.Dropped < h.Dropped {
			t.Errorf("%s: faulty run dropped fewer (%d < %d)", alg, f.Dropped, h.Dropped)
		}
		// Conservation: every VM is either scheduled or dropped.
		if f.Scheduled+f.Dropped != 3000 {
			t.Errorf("%s: %d+%d VMs accounted", alg, f.Scheduled, f.Dropped)
		}
	}
	// RISA keeps placing everything intra-rack even around the hole.
	if r.Faulty["RISA"].InterRack != 0 {
		t.Errorf("RISA inter-rack under failure = %d", r.Faulty["RISA"].InterRack)
	}
	if !strings.Contains(r.Render(), "rack 0 fails") {
		t.Error("render incomplete")
	}
}

func TestDefragExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("static 1000-VM fill")
	}
	d, err := AzureSetup().RunDefrag(1000)
	if err != nil {
		t.Fatal(err)
	}
	if d.Placed == 0 {
		t.Fatal("nothing placed")
	}
	if d.InterBefore == 0 {
		t.Fatal("NULB fill should create inter-rack placements under the storage-heavy mix")
	}
	if d.InterAfter > d.InterBefore {
		t.Error("rebalance must not increase inter-rack count")
	}
	if d.InterBefore-d.InterAfter != d.Migrated {
		t.Errorf("migration accounting: %d - %d != %d", d.InterBefore, d.InterAfter, d.Migrated)
	}
	if d.PowerAfterKW > d.PowerBeforeKW {
		t.Error("power must not rise after migration")
	}
	if !strings.Contains(d.Render(), "migration pass") {
		t.Error("render incomplete")
	}
}

func TestStrandingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("four static fills")
	}
	st, err := DefaultSetup().RunStranding()
	if err != nil {
		t.Fatal(err)
	}
	// The §4 claim: best-fit packs at least as many VMs as next-fit and
	// strands no more capacity at the checkpoint.
	if st.Placed["RISA-BF"] < st.Placed["RISA"] {
		t.Errorf("RISA-BF placed %d < RISA %d", st.Placed["RISA-BF"], st.Placed["RISA"])
	}
	if st.StrandedRAMPct["RISA-BF"] > st.StrandedRAMPct["RISA"] {
		t.Errorf("RISA-BF strands more: %.1f%% vs %.1f%%",
			st.StrandedRAMPct["RISA-BF"], st.StrandedRAMPct["RISA"])
	}
	for _, alg := range Algorithms {
		if st.Placed[alg] == 0 {
			t.Errorf("%s placed nothing", alg)
		}
		if st.StrandedRAMPct[alg] < 0 || st.StrandedRAMPct[alg] > 100 {
			t.Errorf("%s stranded %% out of range: %g", alg, st.StrandedRAMPct[alg])
		}
	}
	if !strings.Contains(st.Render(), "stranded RAM") {
		t.Error("render incomplete")
	}
}

func TestQueueingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("two overloaded Azure runs")
	}
	q, err := DefaultSetup().RunQueueing()
	if err != nil {
		t.Fatal(err)
	}
	if q.Drop.Dropped == 0 {
		t.Fatal("the shrunken cluster should overload")
	}
	if q.Queue.Scheduled <= q.Drop.Scheduled {
		t.Errorf("retry queue should place more: %d vs %d",
			q.Queue.Scheduled, q.Drop.Scheduled)
	}
	if q.Queue.Enqueued == 0 || q.Queue.MeanWait <= 0 {
		t.Errorf("queue stats empty: %d waited %g", q.Queue.Enqueued, q.Queue.MeanWait)
	}
	if !strings.Contains(q.Render(), "retry-queue") {
		t.Error("render incomplete")
	}
}

func TestThreeTierExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("eight Azure runs")
	}
	tt, err := AzureSetup().RunThreeTier()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		two, three := tt.TwoTier[alg], tt.Pods[alg]
		// The compute decision is fabric-oblivious here (no drops), so
		// inter-rack counts match across fabrics.
		if two.InterRack != three.InterRack {
			t.Errorf("%s: inter-rack differs across fabrics: %d vs %d",
				alg, two.InterRack, three.InterRack)
		}
		if two.InterPod != 0 {
			t.Errorf("%s: two-tier fabric reports inter-pod %d", alg, two.InterPod)
		}
		if three.InterPod > three.InterRack {
			t.Errorf("%s: inter-pod %d exceeds inter-rack %d", alg, three.InterPod, three.InterRack)
		}
		// Extra pod crossings can only add power.
		if three.PeakPowerW < two.PeakPowerW-1e-6 {
			t.Errorf("%s: three-tier power dropped: %g vs %g", alg, three.PeakPowerW, two.PeakPowerW)
		}
	}
	// RISA stays all-intra-rack and therefore identical across fabrics.
	if tt.Pods["RISA"].InterPod != 0 || tt.Pods["RISA"].PeakPowerW != tt.TwoTier["RISA"].PeakPowerW {
		t.Error("RISA should be oblivious to the pod tier")
	}
	if !strings.Contains(tt.Render(), "three-tier") {
		t.Error("render incomplete")
	}
}

func TestSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full runs per seed")
	}
	sweep, err := DefaultSetup().RunSeedSweep([]int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if sweep.Synthetic[alg].Count() != 2 || sweep.Azure[alg].Count() != 2 {
			t.Errorf("%s: missing observations", alg)
		}
	}
	// The headline ordering must hold in the means.
	if sweep.Synthetic["NULB"].Mean() <= sweep.Synthetic["RISA"].Mean() {
		t.Error("NULB should have more synthetic inter-rack than RISA")
	}
	if sweep.Azure["RISA"].Max() != 0 || sweep.Azure["RISA-BF"].Max() != 0 {
		t.Error("RISA variants must be at zero on every Azure seed")
	}
	out := sweep.Render()
	if !strings.Contains(out, "Seed robustness") || !strings.Contains(out, "RISA-BF") {
		t.Error("render incomplete")
	}
}

// TestSeedSweepAzureFollowsRacks: the Azure half of the sweep runs on the
// caller's cluster size like the synthetic half (it used to stay at 18
// racks whatever -racks said), and at 18 racks it still reproduces the
// Figure 7 Azure-3000 numbers.
func TestSeedSweepAzureFollowsRacks(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs at two cluster sizes")
	}
	sweepAt := func(racks int) *SeedSweep {
		s := DefaultSetup()
		s.Topology.Racks = racks
		sweep, err := s.RunSeedSweep([]int64{1})
		if err != nil {
			t.Fatal(err)
		}
		return sweep
	}
	small, paper := sweepAt(9), sweepAt(18)
	for alg, want := range map[string]float64{"NULB": 37.5, "NALB": 29.07, "RISA": 0, "RISA-BF": 0} {
		if got := paper.Azure[alg].Mean(); math.Abs(got-want) > 0.005 {
			t.Errorf("18 racks, %s: Azure inter-rack %.3f%%, want the Figure 7 value %.2f%%", alg, got, want)
		}
	}
	for _, alg := range []string{"NULB", "NALB"} {
		if small.Azure[alg].Mean() == paper.Azure[alg].Mean() {
			t.Errorf("%s: Azure inter-rack %.3f%% at both 9 and 18 racks — the Azure half ignored the cluster size",
				alg, paper.Azure[alg].Mean())
		}
	}
}

func TestAlphaSweepRender(t *testing.T) {
	a := &AlphaSweep{Alphas: []float64{0.5, 0.9}, PeakKW: []float64{2.5, 3.5}}
	out := a.Render()
	if !strings.Contains(out, "α=0.50") || !strings.Contains(out, "3.500 kW") {
		t.Errorf("render incomplete:\n%s", out)
	}
}
