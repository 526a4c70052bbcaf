// Package topology models the disaggregated datacenter of the RISA paper:
// a cluster of racks, each rack holding boxes that each contain a single
// resource kind (CPU, RAM or storage), each box divided into bricks that
// hold a fixed number of allocation units.
//
// The package owns all compute-capacity bookkeeping: allocating a VM's
// share of a resource inside a box (possibly spanning bricks) and releasing
// it when the VM departs. Network capacity lives in package network.
package topology

import (
	"fmt"

	"risa/internal/units"
)

// Config describes the regular cluster architecture of Table 1 in the
// paper: 18 racks, 6 boxes per rack, 8 bricks per box, 16 units per brick.
// The paper does not fix the resource mix of the 6 boxes; we default to
// 2 CPU + 2 RAM + 2 storage per rack (see DESIGN.md §3 for the
// cross-check against the paper's reported utilizations).
type Config struct {
	Racks         int   // number of racks in the cluster
	CPUBoxes      int   // CPU boxes per rack
	RAMBoxes      int   // RAM boxes per rack
	STOBoxes      int   // storage boxes per rack
	BricksPerBox  int   // bricks in every box
	UnitsPerBrick int64 // allocation units per brick
	Units         units.Config
}

// maxBricksPerBox is the width of a box's brick-availability mask
// (Box.avail). The paper's 64-port box switch bounds a box at 64 bricks
// anyway.
const maxBricksPerBox = 64

// DefaultConfig returns the Table 1 architecture: an 18-rack cluster with
// 6 boxes per rack (2 of each kind), 8 bricks per box and 16 units per
// brick, using the default unit sizes.
func DefaultConfig() Config {
	return Config{
		Racks:         18,
		CPUBoxes:      2,
		RAMBoxes:      2,
		STOBoxes:      2,
		BricksPerBox:  8,
		UnitsPerBrick: 16,
		Units:         units.DefaultConfig(),
	}
}

// Validate checks structural sanity of the configuration.
func (c Config) Validate() error {
	if c.Racks <= 0 {
		return fmt.Errorf("topology: need at least one rack, got %d", c.Racks)
	}
	if c.CPUBoxes < 0 || c.RAMBoxes < 0 || c.STOBoxes < 0 {
		return fmt.Errorf("topology: negative box counts (cpu=%d ram=%d sto=%d)",
			c.CPUBoxes, c.RAMBoxes, c.STOBoxes)
	}
	// Every resource kind must exist somewhere in the cluster: a VM always
	// requests storage (and usually all three kinds), so a kind with zero
	// boxes cluster-wide makes every workload unschedulable — easy to
	// construct by accident when sweeping rack counts and box mixes.
	for _, k := range units.Resources() {
		if c.BoxKindCount(k)*c.Racks <= 0 {
			return fmt.Errorf("topology: %v has no boxes cluster-wide (%d per rack × %d racks)",
				k, c.BoxKindCount(k), c.Racks)
		}
	}
	if c.BricksPerBox <= 0 || c.BricksPerBox > maxBricksPerBox {
		return fmt.Errorf("topology: bricks per box must be in [1,%d], got %d", maxBricksPerBox, c.BricksPerBox)
	}
	if c.UnitsPerBrick <= 0 {
		return fmt.Errorf("topology: units per brick must be positive, got %d", c.UnitsPerBrick)
	}
	return c.Units.Validate()
}

// BoxesPerRack returns the total number of boxes in one rack.
func (c Config) BoxesPerRack() int { return c.CPUBoxes + c.RAMBoxes + c.STOBoxes }

// BoxKindCount returns how many boxes of kind r each rack holds.
func (c Config) BoxKindCount(r units.Resource) int {
	switch r {
	case units.CPU:
		return c.CPUBoxes
	case units.RAM:
		return c.RAMBoxes
	case units.Storage:
		return c.STOBoxes
	default:
		panic(fmt.Sprintf("topology: invalid resource %d", int(r)))
	}
}

// BrickCapacity returns the native amount one brick of kind r holds.
func (c Config) BrickCapacity(r units.Resource) units.Amount {
	return c.Units.AmountOfUnits(r, c.UnitsPerBrick)
}

// BoxCapacity returns the native amount one box of kind r holds.
func (c Config) BoxCapacity(r units.Resource) units.Amount {
	return c.BrickCapacity(r) * units.Amount(c.BricksPerBox)
}
