package power

import (
	"math"
	"testing"
	"time"

	"risa/internal/network"
	"risa/internal/optics"
	"risa/internal/topology"
	"risa/internal/units"
)

func testSetup(t testing.TB) (*topology.Cluster, *network.Fabric, *Model) {
	t.Helper()
	cl, err := topology.New(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fab, err := network.NewFabric(cl, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(optics.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return cl, fab, m
}

func intraFlow(t testing.TB, cl *topology.Cluster, fab *network.Fabric, bw units.Bandwidth) *network.Flow {
	t.Helper()
	rack := cl.Rack(0)
	fl, err := fab.AllocateFlow(rack.BoxesOf(units.CPU)[0], rack.BoxesOf(units.RAM)[0], bw, network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

func interFlow(t testing.TB, cl *topology.Cluster, fab *network.Fabric, bw units.Bandwidth) *network.Flow {
	t.Helper()
	fl, err := fab.AllocateFlow(cl.Rack(0).BoxesOf(units.CPU)[0], cl.Rack(1).BoxesOf(units.RAM)[0], bw, network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

func TestNewModelRejectsBadConfig(t *testing.T) {
	cfg := optics.DefaultConfig()
	cfg.Alpha = 0.1
	if _, err := NewModel(cfg); err == nil {
		t.Error("bad optics config should fail")
	}
}

func TestTransceiverPowerByShape(t *testing.T) {
	cl, fab, m := testSetup(t)
	intra := intraFlow(t, cl, fab, 100)
	inter := interFlow(t, cl, fab, 100)
	// 100 Gb/s x 22.5 pJ/bit = 2.25 W per traversal.
	if got := m.TransceiverPower(intra); math.Abs(got-4*2.25) > 1e-9 {
		t.Errorf("intra transceiver power = %g, want 9", got)
	}
	if got := m.TransceiverPower(inter); math.Abs(got-6*2.25) > 1e-9 {
		t.Errorf("inter transceiver power = %g, want 13.5", got)
	}
}

func TestTrimmingPowerByShape(t *testing.T) {
	cl, fab, m := testSetup(t)
	intra := intraFlow(t, cl, fab, 10)
	inter := interFlow(t, cl, fab, 10)
	cfg := optics.DefaultConfig()
	trimBox, _ := cfg.PathTrimmingPower(64)
	trimRack, _ := cfg.PathTrimmingPower(256)
	trimInter, _ := cfg.PathTrimmingPower(512)
	wantIntra := 2*trimBox + trimRack
	wantInter := 2*trimBox + 2*trimRack + trimInter
	if got := m.TrimmingPower(intra); math.Abs(got-wantIntra) > 1e-12 {
		t.Errorf("intra trimming = %g, want %g", got, wantIntra)
	}
	if got := m.TrimmingPower(inter); math.Abs(got-wantInter) > 1e-12 {
		t.Errorf("inter trimming = %g, want %g", got, wantInter)
	}
	// An inter-rack flow always costs more than intra at equal bandwidth.
	if m.FlowPower(inter) <= m.FlowPower(intra) {
		t.Error("inter-rack flow should cost more power")
	}
}

func TestSetupEnergy(t *testing.T) {
	cl, fab, m := testSetup(t)
	intra := intraFlow(t, cl, fab, 10)
	sBox, _ := optics.PathSwitchingEnergy(64)
	sRack, _ := optics.PathSwitchingEnergy(256)
	want := 2*sBox + sRack
	if got := m.SetupEnergy(intra); math.Abs(got-want) > 1e-15 {
		t.Errorf("setup energy = %g, want %g", got, want)
	}
}

func TestFlowEnergyEquation1(t *testing.T) {
	cl, fab, m := testSetup(t)
	fl := intraFlow(t, cl, fab, 20)
	lifetime := 100 * time.Second
	got := m.FlowEnergy(fl, lifetime)
	want := m.SetupEnergy(fl) + (m.TrimmingPower(fl)+m.TransceiverPower(fl))*100
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("FlowEnergy = %g, want %g", got, want)
	}
	// Energy grows with lifetime.
	if m.FlowEnergy(fl, 2*lifetime) <= got {
		t.Error("energy must grow with lifetime")
	}
}

func TestAccountantAddRemove(t *testing.T) {
	cl, fab, m := testSetup(t)
	a := NewAccountant(m)
	if a.Power() != 0 || a.flows != 0 {
		t.Fatal("fresh accountant should be empty")
	}
	fl1 := intraFlow(t, cl, fab, 50)
	fl2 := interFlow(t, cl, fab, 50)
	a.Add(fl1)
	p1 := a.Power()
	a.Add(fl2)
	if a.Power() <= p1 {
		t.Error("power must rise with a second flow")
	}
	if a.flows != 2 {
		t.Errorf("flows = %d", a.flows)
	}
	if a.PeakPower() != a.Power() {
		t.Error("peak should track the max")
	}
	peak := a.PeakPower()
	a.Remove(fl2)
	if math.Abs(a.Power()-p1) > 1e-9 {
		t.Errorf("power after remove = %g, want %g", a.Power(), p1)
	}
	if a.PeakPower() != peak {
		t.Error("peak must not fall on remove")
	}
	a.Remove(fl1)
	if a.Power() != 0 || a.flows != 0 {
		t.Error("empty accountant should be at zero")
	}
}

func TestAccountantEnergyIntegration(t *testing.T) {
	cl, fab, m := testSetup(t)
	a := NewAccountant(m)
	fl := intraFlow(t, cl, fab, 100)
	a.Add(fl)
	setup := m.SetupEnergy(fl)
	a.AdvanceSeconds(10)
	want := setup + a.Power()*10
	if got := a.EnergyJoules(); math.Abs(got-want) > 1e-9 {
		t.Errorf("energy = %g, want %g", got, want)
	}
	a.Remove(fl)
	a.AdvanceSeconds(100) // zero power: no extra energy
	if got := a.EnergyJoules(); math.Abs(got-want) > 1e-9 {
		t.Errorf("energy after idle = %g, want %g", got, want)
	}
}

func TestAccountantGuards(t *testing.T) {
	_, _, m := testSetup(t)
	a := NewAccountant(m)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Remove on empty accountant should panic")
			}
		}()
		a.Remove(&network.Flow{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative time step should panic")
			}
		}()
		a.AdvanceSeconds(-1)
	}()
}

// Scale sanity: the paper's Figure 9 reports single-digit kW for thousands
// of concurrent VMs. Check a thousand typical intra-rack flows land in
// that ballpark (0.5-5 kW).
func TestPowerScaleSanity(t *testing.T) {
	cl, fab, m := testSetup(t)
	a := NewAccountant(m)
	for i := 0; i < 1000; i++ {
		rack := cl.Rack(i % cl.NumRacks())
		fl, err := fab.AllocateFlow(rack.BoxesOf(units.CPU)[i%2], rack.BoxesOf(units.RAM)[i%2], 22, network.FirstFit)
		if err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
		a.Add(fl)
	}
	kw := a.Power() / 1000
	if kw < 0.5 || kw > 5 {
		t.Errorf("1000 typical flows draw %.2f kW, expected 0.5-5 kW", kw)
	}
}
