// Package power converts active optical circuits into electrical power and
// energy figures, combining the device models of package optics with the
// path shapes of package network.
//
// Two views are exposed:
//
//   - Model: stateless per-flow arithmetic — steady-state power of a flow
//     (transceivers + MRR cell trimming along every crossed switch) and the
//     per-VM setup/lifetime energy of the paper's Equation 1.
//   - Accountant: an integrator that tracks the cluster's aggregate optical
//     power as flows come and go, its peak, and the time-integrated energy.
//
// The paper's Figure 9 ("power consumption for optical components") is the
// Accountant's peak power over a scheduling run.
package power

import (
	"fmt"
	"time"

	"risa/internal/network"
	"risa/internal/optics"
)

// Model precomputes the per-switch-class path constants so per-flow power
// is a handful of multiplications.
type Model struct {
	trimBox, trimRack, trimInter    float64 // W per path crossing
	setupBox, setupRack, setupInter float64 // J per path setup
}

// NewModel builds a Model from an optics configuration.
func NewModel(cfg optics.Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{}
	var err error
	if m.trimBox, err = cfg.PathTrimmingPower(optics.BoxSwitchPorts); err != nil {
		return nil, err
	}
	if m.trimRack, err = cfg.PathTrimmingPower(optics.RackSwitchPorts); err != nil {
		return nil, err
	}
	if m.trimInter, err = cfg.PathTrimmingPower(optics.InterRackSwitchPorts); err != nil {
		return nil, err
	}
	if m.setupBox, err = optics.PathSwitchingEnergy(optics.BoxSwitchPorts); err != nil {
		return nil, err
	}
	if m.setupRack, err = optics.PathSwitchingEnergy(optics.RackSwitchPorts); err != nil {
		return nil, err
	}
	if m.setupInter, err = optics.PathSwitchingEnergy(optics.InterRackSwitchPorts); err != nil {
		return nil, err
	}
	return m, nil
}

// TransceiverPower returns the steady-state transceiver power of a flow:
// one transceiver pair per link traversal (4 intra-rack, 6 inter-rack),
// each at 22.5 pJ/bit × the flow's bandwidth.
func (m *Model) TransceiverPower(fl *network.Flow) float64 {
	return float64(fl.LinkTraversals()) * optics.TransceiverPower(fl.BW())
}

// TrimmingPower returns the steady-state MRR trimming power of the
// switches a flow crosses: α·n·P_trim per switch, n depending on the
// switch class.
func (m *Model) TrimmingPower(fl *network.Flow) float64 {
	return float64(fl.BoxSwitchCrossings())*m.trimBox +
		float64(fl.RackSwitchCrossings())*m.trimRack +
		float64(fl.InterRackSwitchCrossings())*m.trimInter
}

// FlowPower returns the total steady-state optical power of one active
// flow in watts.
func (m *Model) FlowPower(fl *network.Flow) float64 {
	return m.TransceiverPower(fl) + m.TrimmingPower(fl)
}

// SetupEnergy returns the one-shot switch reconfiguration energy of
// establishing a flow: (n/2)·P_sw·lat_sw summed over crossed switches
// (first term of Equation 1).
func (m *Model) SetupEnergy(fl *network.Flow) float64 {
	return float64(fl.BoxSwitchCrossings())*m.setupBox +
		float64(fl.RackSwitchCrossings())*m.setupRack +
		float64(fl.InterRackSwitchCrossings())*m.setupInter
}

// FlowEnergy evaluates the full Equation 1 for a flow held for the given
// lifetime, plus the transceiver energy over that lifetime, in joules.
func (m *Model) FlowEnergy(fl *network.Flow, lifetime time.Duration) float64 {
	return m.SetupEnergy(fl) +
		(m.TrimmingPower(fl)+m.TransceiverPower(fl))*lifetime.Seconds()
}

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

// Remove unregisters a flow that is being torn down.
func (a *Accountant) Remove(fl *network.Flow) {
	if a.flows == 0 {
		panic("power: Remove with no active flows")
	}
	a.power -= a.model.FlowPower(fl)
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
