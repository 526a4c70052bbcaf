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

// Transceiver power is what a flow's bandwidth adds: one transceiver
// pair per link traversal.
func TestTransceiverPowerByShape(t *testing.T) {
	cl, fab, m := testSetup(t)
	transceivers := func(at func(testing.TB, *topology.Cluster, *network.Fabric, units.Bandwidth) *network.Flow) float64 {
		return m.FlowPower(at(t, cl, fab, 100)) - m.FlowPower(at(t, cl, fab, 0))
	}
	// 100 Gb/s x 22.5 pJ/bit = 2.25 W per traversal.
	if got := transceivers(intraFlow); math.Abs(got-4*2.25) > 1e-9 {
		t.Errorf("intra transceiver power = %g, want 9", got)
	}
	if got := transceivers(interFlow); math.Abs(got-6*2.25) > 1e-9 {
		t.Errorf("inter transceiver power = %g, want 13.5", got)
	}
}

// Trimming power is what a flow draws at zero bandwidth: α·n·P_trim per
// crossed switch.
func TestTrimmingPowerByShape(t *testing.T) {
	cl, fab, m := testSetup(t)
	intra := intraFlow(t, cl, fab, 0)
	inter := interFlow(t, cl, fab, 0)
	cfg := optics.DefaultConfig()
	trimBox, trimRack, trimInter := cfg.PathTrimmingPower(64), cfg.PathTrimmingPower(256), cfg.PathTrimmingPower(512)
	wantIntra := 2*trimBox + trimRack
	wantInter := 2*trimBox + 2*trimRack + trimInter
	if got := m.FlowPower(intra); math.Abs(got-wantIntra) > 1e-12 {
		t.Errorf("intra trimming = %g, want %g", got, wantIntra)
	}
	if got := m.FlowPower(inter); math.Abs(got-wantInter) > 1e-12 {
		t.Errorf("inter trimming = %g, want %g", got, wantInter)
	}
	// An inter-rack flow always costs more than intra at equal bandwidth.
	if m.FlowPower(interFlow(t, cl, fab, 10)) <= m.FlowPower(intraFlow(t, cl, fab, 10)) {
		t.Error("inter-rack flow should cost more power")
	}
}

func TestSetupEnergy(t *testing.T) {
	cl, fab, m := testSetup(t)
	intra := intraFlow(t, cl, fab, 10)
	want := 2*optics.PathSwitchingEnergy(64) + optics.PathSwitchingEnergy(256)
	if got := m.SetupEnergy(intra); math.Abs(got-want) > 1e-15 {
		t.Errorf("setup energy = %g, want %g", got, want)
	}
}

// Equation 1 as the simulator evaluates it — SetupEnergy + FlowPower × T
// — against its two terms built from the device model, plus the
// transceivers over T.
func TestFlowEnergyEquation1(t *testing.T) {
	cl, fab, m := testSetup(t)
	fl := intraFlow(t, cl, fab, 20)
	cfg := optics.DefaultConfig()
	energy := func(secs float64) float64 { return m.SetupEnergy(fl) + m.FlowPower(fl)*secs }
	setup := 2*optics.PathSwitchingEnergy(64) + optics.PathSwitchingEnergy(256)
	trim := 2*cfg.PathTrimmingPower(64) + cfg.PathTrimmingPower(256)
	want := setup + (trim+4*optics.TransceiverPower(20))*100
	if got := energy(100); math.Abs(got-want) > 1e-9 {
		t.Errorf("Equation 1 over 100 s = %g, want %g", got, want)
	}
	// Energy grows with lifetime.
	if energy(200) <= energy(100) {
		t.Error("energy must grow with lifetime")
	}
}

// perCrossing is the power model evaluated switch by switch for one flow,
// the way it was before the per-class constants: the oracle the class
// table must reproduce bit for bit.
type perCrossing struct{ power, setup, trim, trans float64 }

func perCrossingOf(cfg optics.Config, fl *network.Flow) perCrossing {
	c := fl.Class()
	box, rack, inter := float64(c.BoxSwitchCrossings()), float64(c.RackSwitchCrossings()), float64(c.InterRackSwitchCrossings())
	trans := float64(c.LinkTraversals()) * optics.TransceiverPower(fl.BW())
	trim := box*cfg.PathTrimmingPower(optics.BoxSwitchPorts) +
		rack*cfg.PathTrimmingPower(optics.RackSwitchPorts) +
		inter*cfg.PathTrimmingPower(optics.InterRackSwitchPorts)
	setup := box*optics.PathSwitchingEnergy(optics.BoxSwitchPorts) +
		rack*optics.PathSwitchingEnergy(optics.RackSwitchPorts) +
		inter*optics.PathSwitchingEnergy(optics.InterRackSwitchPorts)
	return perCrossing{power: trans + trim, setup: setup, trim: trim, trans: trans}
}

// TestClassConstantsMatchPerCrossing holds FlowPower, SetupEnergy, the
// power Accountant.Remove returns and Equation 1's energy to the
// per-crossing oracle, bit for bit, for all three flow classes of a
// three-tier fabric, every α of the sweep and bandwidths from 0 to a
// full link.
func TestClassConstantsMatchPerCrossing(t *testing.T) {
	cl, err := topology.New(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ncfg := network.DefaultConfig()
	ncfg.RacksPerPod = 6 // 18 racks → 3 pods
	fab, err := network.NewFabric(cl, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	dsts := map[network.Class]*topology.Box{
		network.IntraRack: cl.Rack(0).BoxesOf(units.RAM)[0],
		network.InterRack: cl.Rack(3).BoxesOf(units.RAM)[0],
		network.InterPod:  cl.Rack(12).BoxesOf(units.RAM)[0],
	}
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	lives := []time.Duration{0, time.Nanosecond, 1500 * time.Millisecond, time.Hour, 1e6 * time.Second}
	for _, alpha := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		m, err := NewModel(optics.Config{Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		for class, dst := range dsts {
			for _, bw := range []units.Bandwidth{0, 1, 3, 7, 20, 22, 99, units.LinkCapacity} {
				var fl network.Flow
				if err := fab.Reserve(&fl, src, dst, bw, network.FirstFit); err != nil {
					t.Fatal(err)
				}
				if fl.Class() != class {
					t.Fatalf("flow to %v is class %d, want %d", dst, fl.Class(), class)
				}
				want := perCrossingOf(optics.Config{Alpha: alpha}, &fl)
				same := func(what string, got, want float64) {
					t.Helper()
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("α %g class %d %v: %s = %v, per crossing %v", alpha, class, bw, what, got, want)
					}
				}
				p := m.FlowPower(&fl)
				same("FlowPower", p, want.power)
				same("SetupEnergy", m.SetupEnergy(&fl), want.setup)
				a := NewAccountant(m)
				a.Add(&fl)
				same("Remove", a.Remove(&fl), want.power)
				for _, life := range lives {
					// Equation 1 as the finite run sums it, against the
					// per-crossing FlowEnergy: setup + (trim + trans) × T.
					same("Equation 1", m.SetupEnergy(&fl)+p*life.Seconds(),
						want.setup+(want.trim+want.trans)*life.Seconds())
				}
				fab.Unreserve(&fl)
			}
		}
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
