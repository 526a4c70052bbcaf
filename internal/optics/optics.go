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

// Physical constants from the paper (§3.1-3.2). Of these only α is also a
// setting: Config.Alpha, which the α sweep varies.
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
	// CellLatency is the per-stage reconfiguration latency; the paper's
	// switch latency (ref [6]) grows with switch size, which we model as
	// lat_sw = stages × CellLatency (see DESIGN.md §3).
	CellLatency = 100 * time.Nanosecond
)

// Switch port counts needed to support the Table 1 architecture (§5.2).
const (
	BoxSwitchPorts       = 64
	RackSwitchPorts      = 256
	InterRackSwitchPorts = 512
)

// Stages returns the number of 2x2-cell stages in an N-port Beneš network:
// 2·log2(N) − 1. A path crosses one cell per stage, so this is also
// Equation 1's n. N must be a power of two ≥ 2; every caller passes one
// of the port constants above, so any other count is a programming error
// and panics.
func Stages(ports int) int {
	if ports < 2 || bits.OnesCount(uint(ports)) != 1 {
		panic(fmt.Sprintf("optics: Beneš port count must be a power of two ≥ 2, got %d", ports))
	}
	return 2*bits.Len(uint(ports-1)) - 1
}

// Config holds the one device parameter an experiment varies: the
// cell-sharing factor α (the α sweep). Every other device figure is a
// package constant. The zero value is not valid; start from DefaultConfig.
type Config struct {
	Alpha float64 // cell sharing factor in [0.5, 1.0]
}

// DefaultConfig returns the paper's α.
func DefaultConfig() Config {
	return Config{Alpha: DefaultAlpha}
}

// Validate checks that α lies in the paper's range.
func (c Config) Validate() error {
	if c.Alpha < 0.5 || c.Alpha > 1.0 {
		return fmt.Errorf("optics: alpha %g outside [0.5, 1.0]", c.Alpha)
	}
	return nil
}

// SwitchLatency returns lat_sw for an N-port switch: stages × CellLatency.
func SwitchLatency(ports int) time.Duration {
	return time.Duration(Stages(ports)) * CellLatency
}

// PathTrimmingPower returns the steady-state trimming power attributed to
// one path through an N-port switch: α · n · P_trimcell (the second term of
// Equation 1 divided by T).
func (c Config) PathTrimmingPower(ports int) float64 {
	return c.Alpha * float64(Stages(ports)) * PTrimCellWatts
}

// PathSwitchingEnergy returns the one-shot reconfiguration energy of
// setting up one path through an N-port switch: (n/2) · P_swcell · lat_sw
// (the first term of Equation 1). The paper assumes half the cells along a
// path change state.
func PathSwitchingEnergy(ports int) float64 {
	return float64(Stages(ports)) / 2 * PSwCellWatts * SwitchLatency(ports).Seconds()
}

// TransceiverPower returns the steady-state power of carrying bw through
// one transceiver pair (one link traversal): energy-per-bit × bit rate.
// Keep the factors in this order: folding the two constants first would
// round differently.
func TransceiverPower(bw units.Bandwidth) float64 {
	return TransceiverJoulesPerBit * float64(bw) * 1e9
}
