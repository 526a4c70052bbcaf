// Package power converts active optical circuits into electrical power and
// energy figures, combining the device models of package optics with the
// path shapes of package network.
//
// Two views are exposed:
//
//   - Model: stateless per-flow arithmetic, from constants kept per flow
//     class — steady-state power of a flow (transceivers + MRR cell
//     trimming along every crossed switch) and the one-shot setup energy
//     that, with the power over a lifetime, is the paper's Equation 1.
//   - Accountant: an integrator that tracks the cluster's aggregate optical
//     power as flows come and go, its peak, and the time-integrated energy.
//
// The paper's Figure 9 ("power consumption for optical components") is the
// Accountant's peak power over a scheduling run.
package power

import (
	"fmt"

	"risa/internal/network"
	"risa/internal/optics"
)

// Model holds, per flow class, the constants of a flow's power: a flow
// of one class crosses the same switches and links as every other, so
// per-flow power is one multiplication and one addition.
type Model struct {
	cls [network.NumClasses]classPower
}

// classPower is one flow class's share of the physics.
type classPower struct {
	hops  float64 // link traversals: one transceiver pair each
	trimW float64 // MRR trimming along every crossed switch, W
	setup float64 // one-shot switch reconfiguration, J (Equation 1's first term)
}

// NewModel builds a Model from an optics configuration.
func NewModel(cfg optics.Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	trimBox := cfg.PathTrimmingPower(optics.BoxSwitchPorts)
	trimRack := cfg.PathTrimmingPower(optics.RackSwitchPorts)
	trimInter := cfg.PathTrimmingPower(optics.InterRackSwitchPorts)
	setupBox := optics.PathSwitchingEnergy(optics.BoxSwitchPorts)
	setupRack := optics.PathSwitchingEnergy(optics.RackSwitchPorts)
	setupInter := optics.PathSwitchingEnergy(optics.InterRackSwitchPorts)
	m := &Model{}
	for c := range m.cls {
		c := network.Class(c)
		box, rack, inter := float64(c.BoxSwitchCrossings()), float64(c.RackSwitchCrossings()), float64(c.InterRackSwitchCrossings())
		m.cls[c] = classPower{
			hops:  float64(c.LinkTraversals()),
			trimW: box*trimBox + rack*trimRack + inter*trimInter,
			setup: box*setupBox + rack*setupRack + inter*setupInter,
		}
	}
	return m, nil
}

// FlowPower returns the total steady-state optical power of one active
// flow in watts: one transceiver pair per link traversal (4 intra-rack,
// 6 inter-rack, 8 inter-pod), each at 22.5 pJ/bit × the flow's
// bandwidth, plus the MRR trimming power α·n·P_trim of every switch the
// flow crosses, n depending on the switch class.
func (m *Model) FlowPower(fl *network.Flow) float64 {
	c := &m.cls[fl.Class()]
	return c.hops*optics.TransceiverPower(fl.BW()) + c.trimW
}

// SetupEnergy returns the one-shot switch reconfiguration energy of
// establishing a flow: (n/2)·P_sw·lat_sw summed over crossed switches
// (first term of Equation 1). A flow's Equation 1 energy over a lifetime
// T is SetupEnergy + FlowPower·T.
func (m *Model) SetupEnergy(fl *network.Flow) float64 { return m.cls[fl.Class()].setup }

// Accountant integrates cluster-wide optical power over (simulated) time.
// It is not safe for concurrent use; the simulator drives it from one
// goroutine.
type Accountant struct {
	model  *Model
	power  float64 // current aggregate W
	peak   float64 // maximum aggregate W seen
	energy float64 // integrated J (steady-state terms)
	setup  float64 // accumulated one-shot setup J
	flows  int
}

// NewAccountant returns an empty accountant over the model.
func NewAccountant(m *Model) *Accountant { return &Accountant{model: m} }

// Add registers an established flow: its steady-state power joins the
// aggregate and its setup energy is charged once.
func (a *Accountant) Add(fl *network.Flow) {
	a.power += a.model.FlowPower(fl)
	a.setup += a.model.SetupEnergy(fl)
	a.flows++
	if a.power > a.peak {
		a.peak = a.power
	}
}

// Remove unregisters a flow that is being torn down and returns the
// steady-state power it drew, its FlowPower.
func (a *Accountant) Remove(fl *network.Flow) float64 {
	if a.flows == 0 {
		panic("power: Remove with no active flows")
	}
	p := a.model.FlowPower(fl)
	a.power -= p
	a.flows--
	// Drift guard: with every flow gone the aggregate must be zero up to
	// float64 accumulation error. The tolerance scales with the peak
	// aggregate — a hyperscale run sums millions of additions and
	// subtractions, so its residue grows with the magnitudes involved
	// (relative drift is ~1e-16 per operation) — with an absolute floor
	// for tiny runs.
	if a.flows == 0 && a.power > a.peak*1e-9+1e-9 {
		panic(fmt.Sprintf("power: %g W left with no active flows (peak %g W)", a.power, a.peak))
	}
	if a.power < 0 {
		a.power = 0 // guard against float drift
	}
	return p
}

// AdvanceSeconds integrates the current power over dt simulated seconds.
func (a *Accountant) AdvanceSeconds(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("power: negative time step %g", dt))
	}
	a.energy += a.power * dt
}

// Power returns the current aggregate steady-state power in watts.
func (a *Accountant) Power() float64 { return a.power }

// PeakPower returns the maximum aggregate power seen so far in watts.
func (a *Accountant) PeakPower() float64 { return a.peak }

// EnergyJoules returns the integrated energy: steady-state power over time
// plus all one-shot setup energies.
func (a *Accountant) EnergyJoules() float64 { return a.energy + a.setup }
