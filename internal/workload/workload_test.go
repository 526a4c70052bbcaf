package workload

import (
	"math"
	"testing"
	"testing/quick"

	"risa/internal/units"
)

func TestVMValidate(t *testing.T) {
	good := VM{ID: 0, Arrival: 0, Lifetime: 10, Req: units.Vec(1, 1, 1)}
	if err := good.Validate(); err != nil {
		t.Errorf("good VM invalid: %v", err)
	}
	bad := []VM{
		{Arrival: -1, Lifetime: 10, Req: units.Vec(1, 1, 1)},
		{Arrival: 0, Lifetime: 0, Req: units.Vec(1, 1, 1)},
		{Arrival: 0, Lifetime: -3, Req: units.Vec(1, 1, 1)},
		{Arrival: 0, Lifetime: 10, Req: units.Vec(-1, 1, 1)},
		{Arrival: 0, Lifetime: 10, Req: units.Vec(0, 0, 0)},
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("bad VM %d should fail validation", i)
		}
	}
}

func TestVMDeparture(t *testing.T) {
	v := VM{Arrival: 100, Lifetime: 50}
	if v.Departure() != 150 {
		t.Errorf("Departure = %d", v.Departure())
	}
}

func TestTraceValidateOrdering(t *testing.T) {
	tr := &Trace{Name: "x", VMs: []VM{
		{ID: 0, Arrival: 10, Lifetime: 1, Req: units.Vec(1, 1, 1)},
		{ID: 1, Arrival: 5, Lifetime: 1, Req: units.Vec(1, 1, 1)},
	}}
	if err := tr.Validate(); err == nil {
		t.Error("out-of-order trace should fail")
	}
}

func TestTraceStats(t *testing.T) {
	tr := &Trace{VMs: []VM{
		{Arrival: 0, Lifetime: 10, Req: units.Vec(2, 4, 128)},
		{Arrival: 5, Lifetime: 20, Req: units.Vec(4, 8, 128)},
	}}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Makespan() != 25 {
		t.Errorf("Makespan = %d", tr.Makespan())
	}
	mean := tr.MeanRequest()
	if mean[units.CPU] != 3 || mean[units.RAM] != 6 || mean[units.Storage] != 128 {
		t.Errorf("MeanRequest = %v", mean)
	}
	empty := &Trace{}
	if m := empty.MeanRequest(); m[units.CPU] != 0 {
		t.Error("empty trace mean should be zero")
	}
}

func TestTraceHistogram(t *testing.T) {
	tr := &Trace{VMs: []VM{
		{Req: units.Vec(1, 4, 128)},
		{Req: units.Vec(1, 8, 128)},
		{Req: units.Vec(2, 4, 128)},
	}}
	h := tr.Histogram(units.CPU)
	want := []ValueCount{{1, 2}, {2, 1}}
	if len(h) != len(want) || h[0] != want[0] || h[1] != want[1] {
		t.Errorf("CPU histogram = %v, want %v", h, want)
	}
	hr := tr.Histogram(units.RAM)
	if len(hr) != 2 || hr[0] != (ValueCount{4, 2}) || hr[1] != (ValueCount{8, 1}) {
		t.Errorf("RAM histogram = %v", hr)
	}
}

func TestDefaultSyntheticConfigMatchesPaper(t *testing.T) {
	c := DefaultSyntheticConfig()
	if c.N != 2500 || c.MeanInterarrival != 10 || c.CPUMax != 32 ||
		c.RAMMax != 32 || c.StorageGB != 128 ||
		c.LifetimeBase != 6300 || c.LifetimeStep != 360 || c.SetSize != 100 {
		t.Errorf("DefaultSyntheticConfig = %+v does not match §5.1", c)
	}
}

func TestSyntheticGeneration(t *testing.T) {
	tr, err := Synthetic(DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if tr.Len() != 2500 {
		t.Fatalf("N = %d", tr.Len())
	}
	for _, v := range tr.VMs {
		if v.Req[units.CPU] < 1 || v.Req[units.CPU] > 32 {
			t.Fatalf("VM %d CPU out of range: %d", v.ID, v.Req[units.CPU])
		}
		if v.Req[units.RAM] < 1 || v.Req[units.RAM] > 32 {
			t.Fatalf("VM %d RAM out of range: %d", v.ID, v.Req[units.RAM])
		}
		if v.Req[units.Storage] != 128 {
			t.Fatalf("VM %d storage = %d, want 128", v.ID, v.Req[units.Storage])
		}
	}
	// Lifetime schedule: VM 0..99 → 6300, VM 100..199 → 6660, VM 2400+ → 6300+24*360.
	if tr.VMs[0].Lifetime != 6300 || tr.VMs[99].Lifetime != 6300 {
		t.Error("first set lifetime wrong")
	}
	if tr.VMs[100].Lifetime != 6660 {
		t.Errorf("second set lifetime = %d", tr.VMs[100].Lifetime)
	}
	if tr.VMs[2499].Lifetime != 6300+24*360 {
		t.Errorf("last set lifetime = %d", tr.VMs[2499].Lifetime)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, _ := Synthetic(DefaultSyntheticConfig())
	b, _ := Synthetic(DefaultSyntheticConfig())
	if len(a.VMs) != len(b.VMs) {
		t.Fatal("lengths differ")
	}
	for i := range a.VMs {
		if a.VMs[i] != b.VMs[i] {
			t.Fatalf("VM %d differs between identical seeds", i)
		}
	}
	c2 := DefaultSyntheticConfig()
	c2.Seed = 2
	c, _ := Synthetic(c2)
	same := true
	for i := range a.VMs {
		if a.VMs[i].Req != c.VMs[i].Req {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestSyntheticMeanInterarrival(t *testing.T) {
	tr, _ := Synthetic(DefaultSyntheticConfig())
	last := tr.VMs[tr.Len()-1].Arrival
	mean := float64(last) / float64(tr.Len())
	if mean < 8 || mean > 12 {
		t.Errorf("empirical mean interarrival = %g, want ≈10", mean)
	}
}

func TestSyntheticUniformMeans(t *testing.T) {
	tr, _ := Synthetic(DefaultSyntheticConfig())
	m := tr.MeanRequest()
	// Uniform 1..32 has mean 16.5; 2500 samples → s.e. ≈ 0.18.
	if math.Abs(m[units.CPU]-16.5) > 1 {
		t.Errorf("CPU mean = %g, want ≈16.5", m[units.CPU])
	}
	if math.Abs(m[units.RAM]-16.5) > 1 {
		t.Errorf("RAM mean = %g, want ≈16.5", m[units.RAM])
	}
}

func TestSyntheticConfigValidation(t *testing.T) {
	mutations := []func(*SyntheticConfig){
		func(c *SyntheticConfig) { c.N = 0 },
		func(c *SyntheticConfig) { c.MeanInterarrival = 0 },
		func(c *SyntheticConfig) { c.CPUMin = 0 },
		func(c *SyntheticConfig) { c.CPUMax = c.CPUMin - 1 },
		func(c *SyntheticConfig) { c.RAMMin = -1 },
		func(c *SyntheticConfig) { c.StorageGB = 0 },
		func(c *SyntheticConfig) { c.LifetimeBase = 0 },
		func(c *SyntheticConfig) { c.LifetimeStep = -1 },
		func(c *SyntheticConfig) { c.SetSize = 0 },
	}
	for i, m := range mutations {
		c := DefaultSyntheticConfig()
		m(&c)
		if _, err := Synthetic(c); err == nil {
			t.Errorf("mutation %d should fail", i)
		}
	}
}

func TestAzureSubsetString(t *testing.T) {
	if Azure3000.String() != "Azure-3000" || Azure7500.String() != "Azure-7500" {
		t.Error("subset names wrong")
	}
	if AzureSubset(9).String() == "" {
		t.Error("unknown subset should render")
	}
	if len(Subsets()) != 3 {
		t.Error("3 subsets expected")
	}
}

func TestAzureSpecsSumExactly(t *testing.T) {
	for _, s := range Subsets() {
		spec, err := Spec(s)
		if err != nil {
			t.Fatal(err)
		}
		var cpuSum, ramSum int
		for _, b := range spec.CPU {
			cpuSum += b.Count
		}
		for _, b := range spec.RAM {
			ramSum += b.Count
		}
		if cpuSum != spec.N || ramSum != spec.N {
			t.Errorf("%v: CPU Σ=%d RAM Σ=%d, want %d", s, cpuSum, ramSum, spec.N)
		}
	}
	if _, err := Spec(AzureSubset(42)); err == nil {
		t.Error("unknown subset should fail")
	}
}

// The generated traces must reproduce the paper's Figure 6 histograms
// exactly — this IS the Figure 6 reproduction check.
func TestAzureLikeMatchesFigure6(t *testing.T) {
	for _, s := range Subsets() {
		spec, _ := Spec(s)
		tr, err := AzureLike(AzureConfig{Subset: s, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: invalid trace: %v", s, err)
		}
		if tr.Len() != spec.N {
			t.Fatalf("%v: N = %d, want %d", s, tr.Len(), spec.N)
		}
		gotCPU := tr.Histogram(units.CPU)
		if len(gotCPU) != len(spec.CPU) {
			t.Fatalf("%v: CPU histogram has %d bars, want %d", s, len(gotCPU), len(spec.CPU))
		}
		for i, b := range spec.CPU {
			if gotCPU[i] != b {
				t.Errorf("%v: CPU bar %d = %+v, want %+v", s, i, gotCPU[i], b)
			}
		}
		gotRAM := tr.Histogram(units.RAM)
		for i, b := range spec.RAM {
			if gotRAM[i] != b {
				t.Errorf("%v: RAM bar %d = %+v, want %+v", s, i, gotRAM[i], b)
			}
		}
		for _, v := range tr.VMs {
			if v.Req[units.Storage] != 128 {
				t.Fatalf("%v: VM %d storage = %d, want 128", s, v.ID, v.Req[units.Storage])
			}
		}
	}
}

func TestAzureLikeSeedIndependentHistograms(t *testing.T) {
	a, _ := AzureLike(AzureConfig{Subset: Azure3000, Seed: 1})
	b, _ := AzureLike(AzureConfig{Subset: Azure3000, Seed: 99})
	ha, hb := a.Histogram(units.CPU), b.Histogram(units.CPU)
	for i := range ha {
		if ha[i] != hb[i] {
			t.Error("histograms must be identical across seeds")
		}
	}
	// But the zip order should differ.
	same := true
	for i := range a.VMs {
		if a.VMs[i].Req != b.VMs[i].Req {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should permute requests differently")
	}
}

func TestAzureLikeDefaults(t *testing.T) {
	tr, err := AzureLike(AzureConfig{Subset: Azure3000})
	if err != nil {
		t.Fatal(err)
	}
	// Default interarrival 10 → last arrival around 30000.
	last := float64(tr.VMs[tr.Len()-1].Arrival)
	if last < 20000 || last > 40000 {
		t.Errorf("last arrival = %g, want ≈30000", last)
	}
	// Default lifetime mean 18000 ± sampling noise.
	var sum float64
	for _, v := range tr.VMs {
		sum += float64(v.Lifetime)
	}
	mean := sum / float64(tr.Len())
	if mean < 17000 || mean > 19000 {
		t.Errorf("mean lifetime = %g, want ≈18000", mean)
	}
}

func TestAzureLikeRejectsNegatives(t *testing.T) {
	if _, err := AzureLike(AzureConfig{Subset: Azure3000, MeanInterarrival: -1}); err == nil {
		t.Error("negative interarrival should fail")
	}
	if _, err := AzureLike(AzureConfig{Subset: Azure3000, LifetimeMean: -1}); err == nil {
		t.Error("negative lifetime should fail")
	}
	if _, err := AzureLike(AzureConfig{Subset: Azure3000, StorageGB: -1}); err == nil {
		t.Error("negative storage should fail")
	}
	if _, err := AzureLike(AzureConfig{Subset: AzureSubset(9)}); err == nil {
		t.Error("unknown subset should fail")
	}
}

// Property: every Azure-like trace is valid and arrival-ordered for any
// seed.
func TestAzureLikeAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, err := AzureLike(AzureConfig{Subset: Azure3000, Seed: seed})
		return err == nil && tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestArrivalModelString(t *testing.T) {
	if Poisson.String() != "poisson" || Uniform.String() != "uniform" || Bursty.String() != "bursty" {
		t.Error("model names wrong")
	}
	if ArrivalModel(9).String() == "" {
		t.Error("unknown model should render")
	}
}

func TestUniformArrivals(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Arrivals = Uniform
	tr, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Name != "synthetic-uniform" {
		t.Errorf("name = %q", tr.Name)
	}
	// Same overall rate: mean gap ≈ 10.
	mean := float64(tr.VMs[tr.Len()-1].Arrival) / float64(tr.Len())
	if mean < 8 || mean > 12 {
		t.Errorf("uniform mean gap = %g, want ≈10", mean)
	}
	// Uniform gaps are bounded by 2×mean.
	for i := 1; i < tr.Len(); i++ {
		if gap := tr.VMs[i].Arrival - tr.VMs[i-1].Arrival; gap > 20 {
			t.Fatalf("gap %d exceeds the uniform bound", gap)
		}
	}
}

func TestBurstyArrivalsAlternate(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Arrivals = Bursty
	tr, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Count arrivals in on vs off phases (period 2000): the on phases
	// must receive far more.
	var on, off int
	for _, v := range tr.VMs {
		if (v.Arrival/2000)%2 == 0 {
			on++
		} else {
			off++
		}
	}
	if on < 4*off {
		t.Errorf("bursty arrivals not bursty: on=%d off=%d", on, off)
	}
}

func TestBurstyCustomParameters(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Arrivals = Bursty
	cfg.BurstFactor = 10
	cfg.BurstPeriod = 500
	tr, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestArrivalModelValidation(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Arrivals = ArrivalModel(9)
	if _, err := Synthetic(cfg); err == nil {
		t.Error("unknown arrival model should fail")
	}
	cfg = DefaultSyntheticConfig()
	cfg.BurstFactor = -1
	if _, err := Synthetic(cfg); err == nil {
		t.Error("negative burst factor should fail")
	}
}
