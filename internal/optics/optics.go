// Package optics models the optical devices of the RISA paper's fabric:
// Beneš-topology microring-resonator (MRR) switches and Luxtera SiP
// transceiver modules, together with the per-VM switch energy model of the
// paper's Equation 1:
//
//	E_sw = (n/2 · P_swcell · lat_sw) + (α · n · P_trimcell · T)
//
// where n is the number of MRR cells along a switch path, lat_sw the cell
// reconfiguration latency, α the cell-sharing factor, and T the VM
// lifetime. Constants follow §3.2 of the paper: P_trimcell = 22.67 mW,
// P_swcell = 13.75 mW, α = 0.9, transceiver energy 22.5 pJ/bit.
package optics

import (
	"fmt"
	"math/bits"
	"time"

	"risa/internal/units"
)

// Physical constants from the paper (§3.1-3.2).
const (
	// PTrimCellWatts is the trimming power that keeps one MRR cell in its
	// state (P_trimcell = 22.67 mW, from Mirza et al.).
	PTrimCellWatts = 22.67e-3
	// PSwCellWatts is the power drawn while switching one MRR cell
	// (P_swcell = 13.75 mW).
	PSwCellWatts = 13.75e-3
	// DefaultAlpha is the paper's cell-sharing constant: 0.9 (between 0.5
	// = every cell shared by two VMs and 1.0 = no sharing).
	DefaultAlpha = 0.9
	// TransceiverJoulesPerBit is the Luxtera SiP module energy: 22.5 pJ/bit.
	TransceiverJoulesPerBit = 22.5e-12
)

// Switch port counts needed to support the Table 1 architecture (§5.2).
const (
	BoxSwitchPorts       = 64
	RackSwitchPorts      = 256
	InterRackSwitchPorts = 512
)

// Stages returns the number of 2x2-cell stages in an N-port Beneš network:
// 2·log2(N) − 1. A path crosses one cell per stage, so this is also
// Equation 1's n. N must be a power of two and ≥ 2.
func Stages(ports int) (int, error) {
	if ports < 2 || bits.OnesCount(uint(ports)) != 1 {
		return 0, fmt.Errorf("optics: Beneš port count must be a power of two ≥ 2, got %d", ports)
	}
	return 2*bits.Len(uint(ports-1)) - 1, nil
}

// Config parameterizes the device models. The zero value is not useful;
// start from DefaultConfig.
type Config struct {
	PTrimCell float64 // W per cell, holding state
	PSwCell   float64 // W per cell, during reconfiguration
	Alpha     float64 // cell sharing factor in [0.5, 1.0]
	// CellLatency is the per-stage reconfiguration latency; the paper's
	// switch latency (ref [6]) grows with switch size, which we model as
	// lat_sw = stages × CellLatency (see DESIGN.md §3).
	CellLatency time.Duration
	// TransceiverJPerBit is the SiP module energy per bit.
	TransceiverJPerBit float64
	// Port counts of the three switch classes.
	BoxPorts, RackPorts, InterRackPorts int
}

// DefaultConfig returns the paper's constants.
func DefaultConfig() Config {
	return Config{
		PTrimCell:          PTrimCellWatts,
		PSwCell:            PSwCellWatts,
		Alpha:              DefaultAlpha,
		CellLatency:        100 * time.Nanosecond,
		TransceiverJPerBit: TransceiverJoulesPerBit,
		BoxPorts:           BoxSwitchPorts,
		RackPorts:          RackSwitchPorts,
		InterRackPorts:     InterRackSwitchPorts,
	}
}

// Validate checks physical sanity of the parameters.
func (c Config) Validate() error {
	if c.PTrimCell <= 0 || c.PSwCell <= 0 {
		return fmt.Errorf("optics: cell powers must be positive (trim=%g sw=%g)", c.PTrimCell, c.PSwCell)
	}
	if c.Alpha < 0.5 || c.Alpha > 1.0 {
		return fmt.Errorf("optics: alpha %g outside [0.5, 1.0]", c.Alpha)
	}
	if c.CellLatency <= 0 {
		return fmt.Errorf("optics: cell latency must be positive, got %v", c.CellLatency)
	}
	if c.TransceiverJPerBit <= 0 {
		return fmt.Errorf("optics: transceiver energy must be positive, got %g", c.TransceiverJPerBit)
	}
	for _, p := range []int{c.BoxPorts, c.RackPorts, c.InterRackPorts} {
		if _, err := Stages(p); err != nil {
			return err
		}
	}
	return nil
}

// SwitchLatency returns lat_sw for an N-port switch: stages × CellLatency.
func (c Config) SwitchLatency(ports int) (time.Duration, error) {
	s, err := Stages(ports)
	if err != nil {
		return 0, err
	}
	return time.Duration(s) * c.CellLatency, nil
}

// PathTrimmingPower returns the steady-state trimming power attributed to
// one path through an N-port switch: α · n · P_trimcell (the second term of
// Equation 1 divided by T).
func (c Config) PathTrimmingPower(ports int) (float64, error) {
	n, err := Stages(ports)
	if err != nil {
		return 0, err
	}
	return c.Alpha * float64(n) * c.PTrimCell, nil
}

// PathSwitchingEnergy returns the one-shot reconfiguration energy of
// setting up one path through an N-port switch: (n/2) · P_swcell · lat_sw
// (the first term of Equation 1). The paper assumes half the cells along a
// path change state.
func (c Config) PathSwitchingEnergy(ports int) (float64, error) {
	n, err := Stages(ports)
	if err != nil {
		return 0, err
	}
	lat, err := c.SwitchLatency(ports)
	if err != nil {
		return 0, err
	}
	return float64(n) / 2 * c.PSwCell * lat.Seconds(), nil
}

// TransceiverPower returns the steady-state power of carrying bw through
// one transceiver pair (one link traversal): energy-per-bit × bit rate.
func (c Config) TransceiverPower(bw units.Bandwidth) float64 {
	return c.TransceiverJPerBit * float64(bw) * 1e9
}
