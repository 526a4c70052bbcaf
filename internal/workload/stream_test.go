package workload

import (
	"testing"

	"risa/internal/units"
)

// pull drains n arrivals from a stream, failing the test if it exhausts.
func pull(t *testing.T, s Stream, n int) []VM {
	t.Helper()
	out := make([]VM, 0, n)
	for i := 0; i < n; i++ {
		vm, ok := s.Next()
		if !ok {
			t.Fatalf("stream %q exhausted after %d arrivals, want %d", s.Name(), i, n)
		}
		out = append(out, vm)
	}
	return out
}

// sameVMs compares two arrival sequences exactly.
func sameVMs(t *testing.T, got, want []VM, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d arrivals, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: arrival %d differs: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestStreamDeterministicAcrossPullPatterns is the determinism contract
// of the Stream interface: the same seed yields the same arrival
// sequence whether the consumer drains the stream in one go or pulls it
// in irregular chunks interleaved with pulls from unrelated streams.
func TestStreamDeterministicAcrossPullPatterns(t *testing.T) {
	const n = 600
	build := func(name string) []Stream {
		switch name {
		case "synthetic":
			cfg := DefaultSyntheticConfig()
			cfg.Seed = 42
			a, err := cfg.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			b, err := cfg.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			return []Stream{a, b}
		case "azure-empirical":
			cfg := AzureEmpiricalConfig{Subset: Azure5000, Seed: 42}
			a, err := NewAzureEmpirical(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewAzureEmpirical(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return []Stream{a, b}
		}
		t.Fatalf("unknown generator %q", name)
		return nil
	}
	for _, name := range []string{"synthetic", "azure-empirical"} {
		t.Run(name, func(t *testing.T) {
			pair := build(name)
			straight := pull(t, pair[0], n)

			// Irregular pull pattern: chunks of growing size, interleaved
			// with pulls from a decoy stream that must not perturb it.
			decoyCfg := DefaultSyntheticConfig()
			decoyCfg.Seed = 7
			decoy, err := decoyCfg.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			var chunked []VM
			for chunk := 1; len(chunked) < n; chunk = chunk*2 + 1 {
				take := chunk
				if take > n-len(chunked) {
					take = n - len(chunked)
				}
				chunked = append(chunked, pull(t, pair[1], take)...)
				pull(t, decoy, 3)
			}
			sameVMs(t, chunked, straight, name)
		})
	}
}

// TestSyntheticIsStreamPrefix pins Synthetic's implementation contract:
// the finite trace is exactly the open-ended stream's first N arrivals,
// for every arrival model.
func TestSyntheticIsStreamPrefix(t *testing.T) {
	for _, model := range []ArrivalModel{Poisson, Uniform, Bursty} {
		cfg := DefaultSyntheticConfig()
		cfg.N = 400
		cfg.Arrivals = model
		cfg.Seed = 9
		tr, err := Synthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := cfg.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		sameVMs(t, pull(t, s, cfg.N), tr.VMs, model.String())
		if s.Name() != tr.Name {
			t.Errorf("%v: stream name %q != trace name %q", model, s.Name(), tr.Name)
		}
	}
}

// TestTraceStreamAdapter checks the finite adapter yields the trace
// exactly and then exhausts.
func TestTraceStreamAdapter(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.N = 50
	tr, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewTraceStream(tr)
	if s.Name() != tr.Name {
		t.Errorf("adapter name %q != trace name %q", s.Name(), tr.Name)
	}
	sameVMs(t, pull(t, s, 50), tr.VMs, "trace-stream")
	if _, ok := s.Next(); ok {
		t.Error("adapter should exhaust after the trace's last VM")
	}
}

// TestTakeRoundTrip checks Take materializes a stream prefix as a valid
// trace.
func TestTakeRoundTrip(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	s, err := cfg.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	tr := Take(s, 200)
	if tr.Len() != 200 {
		t.Fatalf("Take returned %d VMs, want 200", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAzureEmpiricalSupport checks every resampled VM is valid and draws
// its sizes from the Figure 6 histogram support.
func TestAzureEmpiricalSupport(t *testing.T) {
	spec, err := Spec(Azure3000)
	if err != nil {
		t.Fatal(err)
	}
	support := func(bars []ValueCount) map[units.Amount]bool {
		m := make(map[units.Amount]bool)
		for _, b := range bars {
			m[b.Value] = true
		}
		return m
	}
	cpus, rams := support(spec.CPU), support(spec.RAM)
	s, err := NewAzureEmpirical(AzureEmpiricalConfig{Subset: Azure3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range pull(t, s, 2000) {
		if err := vm.Validate(); err != nil {
			t.Fatal(err)
		}
		if !cpus[vm.Req[units.CPU]] {
			t.Fatalf("CPU size %d outside the Figure 6 support", vm.Req[units.CPU])
		}
		if !rams[vm.Req[units.RAM]] {
			t.Fatalf("RAM size %d outside the Figure 6 support", vm.Req[units.RAM])
		}
		if vm.Req[units.Storage] != 128 {
			t.Fatalf("storage %d, want the default 128", vm.Req[units.Storage])
		}
	}
}

// TestUtilizationController checks the control law's direction, fixpoint
// and clamp.
func TestUtilizationController(t *testing.T) {
	c := &UtilizationController{Target: 0.75}
	if m := c.Multiplier(); m != 1 {
		t.Fatalf("initial multiplier %g, want 1", m)
	}
	c.ObserveUtilization(0.50) // below target: rate must rise
	if c.Multiplier() <= 1 {
		t.Errorf("multiplier %g after under-target feedback, want > 1", c.Multiplier())
	}
	up := c.Multiplier()
	c.ObserveUtilization(0.75) // at target: stationary
	if c.Multiplier() != up {
		t.Errorf("multiplier moved at target: %g -> %g", up, c.Multiplier())
	}
	for i := 0; i < 200000; i++ {
		c.ObserveUtilization(1.0) // far above target, forever
	}
	if m := c.Multiplier(); m < 1.0/64-1e-12 || m > 1.0/64+1e-9 {
		t.Errorf("multiplier %g, want clamped at 1/64", m)
	}
	for i := 0; i < 400000; i++ {
		c.ObserveUtilization(0)
	}
	if m := c.Multiplier(); m > 64+1e-9 {
		t.Errorf("multiplier %g, want clamped at 64", m)
	}
	if err := (&UtilizationController{}).Validate(); err == nil {
		t.Error("zero target must not validate")
	}
}

// TestControllerOnlyRescalesTime checks the controller contract that it
// never touches the generator's random stream: a controlled stream under
// heavy feedback yields the same request sizes, lifetimes and order as
// an uncontrolled equally-seeded one — only the arrival times move.
func TestControllerOnlyRescalesTime(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Seed = 11
	plain, err := cfg.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	ctl := &UtilizationController{Target: 0.9}
	cfgC := cfg
	cfgC.Controller = ctl
	controlled, err := cfgC.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		a, _ := plain.Next()
		b, _ := controlled.Next()
		controlled.ObserveUtilization(0.2) // keep the controller moving
		if a.Req != b.Req || a.Lifetime != b.Lifetime || a.ID != b.ID {
			t.Fatalf("arrival %d: controlled stream perturbed the draw: %+v vs %+v", i, a, b)
		}
	}
	if ctl.Multiplier() <= 1 {
		t.Errorf("controller never engaged: multiplier %g", ctl.Multiplier())
	}
}
