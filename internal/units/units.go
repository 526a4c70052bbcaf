// Package units defines the resource vocabulary of the disaggregated
// datacenter: the three disaggregated resource kinds (CPU, RAM, storage),
// raw resource amounts, the unit sizes from Table 1 of the RISA paper
// (a CPU unit is 4 cores, a RAM unit is 4 GB, a storage unit is 64 GB),
// and the per-unit network bandwidth requirements from Table 2
// (CPU-RAM 5 Gb/s per unit, RAM-STO 1 Gb/s per unit).
//
// All quantities are integers. Compute amounts are tracked in their native
// granularity (cores for CPU, GB for RAM and storage) because the paper's
// toy examples subtract raw core counts from box availability; unit sizes
// matter only for deriving brick/box capacities and bandwidth demands.
package units

import "fmt"

// Resource identifies one of the three disaggregated resource kinds.
type Resource int

// The three resource kinds of the DDC architecture. Every box in the
// cluster holds exactly one of these.
const (
	CPU Resource = iota
	RAM
	Storage

	// NumResources is the number of resource kinds; useful for sizing
	// per-resource arrays.
	NumResources
)

// String returns the conventional short name of the resource.
func (r Resource) String() string {
	switch r {
	case CPU:
		return "CPU"
	case RAM:
		return "RAM"
	case Storage:
		return "STO"
	default:
		return fmt.Sprintf("Resource(%d)", int(r))
	}
}

// Valid reports whether r names one of the three resource kinds.
func (r Resource) Valid() bool { return r >= CPU && r < NumResources }

// Native returns the native granularity the resource is measured in.
func (r Resource) Native() string {
	switch r {
	case CPU:
		return "cores"
	case RAM:
		return "GB"
	case Storage:
		return "GB"
	default:
		return "?"
	}
}

// Resources lists the three resource kinds in canonical order. The returned
// slice is fresh on every call, so callers may reorder it freely.
func Resources() []Resource { return []Resource{CPU, RAM, Storage} }

// Amount is a raw quantity of one resource in its native granularity:
// cores for CPU, GB for RAM and storage.
type Amount int64

// Vector holds one Amount per resource kind, indexed by Resource. It is the
// standard way a VM request or an availability snapshot travels through the
// scheduler.
type Vector [NumResources]Amount

// Vec builds a Vector from the three raw amounts in canonical order.
func Vec(cpuCores, ramGB, stoGB Amount) Vector {
	return Vector{CPU: cpuCores, RAM: ramGB, Storage: stoGB}
}

// Add returns the element-wise sum v + w.
func (v Vector) Add(w Vector) Vector {
	for r := range v {
		v[r] += w[r]
	}
	return v
}

// Sub returns the element-wise difference v - w.
func (v Vector) Sub(w Vector) Vector {
	for r := range v {
		v[r] -= w[r]
	}
	return v
}

// FitsIn reports whether every component of v is ≤ the matching component
// of w, i.e. a request v can be satisfied from availability w.
func (v Vector) FitsIn(w Vector) bool {
	for r := range v {
		if v[r] > w[r] {
			return false
		}
	}
	return true
}

// IsZero reports whether all components are zero.
func (v Vector) IsZero() bool { return v == Vector{} }

// NonNegative reports whether no component is negative.
func (v Vector) NonNegative() bool {
	for _, a := range v {
		if a < 0 {
			return false
		}
	}
	return true
}

// String renders the vector as "cpu=8cores ram=16GB sto=128GB".
func (v Vector) String() string {
	return fmt.Sprintf("cpu=%dcores ram=%dGB sto=%dGB", v[CPU], v[RAM], v[Storage])
}

// Config fixes the size of one allocation unit per resource. The defaults
// follow Table 1 of the paper.
type Config struct {
	CPUUnitCores Amount // cores per CPU unit
	RAMUnitGB    Amount // GB per RAM unit
	STOUnitGB    Amount // GB per storage unit
}

// DefaultConfig returns the unit sizes from Table 1 of the paper:
// 4 cores, 4 GB RAM, 64 GB storage per unit.
func DefaultConfig() Config {
	return Config{CPUUnitCores: 4, RAMUnitGB: 4, STOUnitGB: 64}
}

// Validate checks that all unit sizes are positive.
func (c Config) Validate() error {
	if c.CPUUnitCores <= 0 || c.RAMUnitGB <= 0 || c.STOUnitGB <= 0 {
		return fmt.Errorf("units: all unit sizes must be positive, got %+v", c)
	}
	return nil
}

// UnitSize returns the native amount held by one unit of resource r.
func (c Config) UnitSize(r Resource) Amount {
	switch r {
	case CPU:
		return c.CPUUnitCores
	case RAM:
		return c.RAMUnitGB
	case Storage:
		return c.STOUnitGB
	default:
		panic(fmt.Sprintf("units: invalid resource %d", int(r)))
	}
}

// UnitsCeil returns the number of whole units needed to cover amount a of
// resource r, rounding up. Zero and negative amounts need zero units.
func (c Config) UnitsCeil(r Resource, a Amount) int64 {
	if a <= 0 {
		return 0
	}
	size := c.UnitSize(r)
	return int64((a + size - 1) / size)
}

// AmountOfUnits converts n units of resource r back into a native amount.
func (c Config) AmountOfUnits(r Resource, n int64) Amount {
	return Amount(n) * c.UnitSize(r)
}

// Bandwidth is an optical bandwidth in Gb/s. The paper's links are
// 200 Gb/s (8 spatially multiplexed 25 Gb/s channels of the Luxtera SiP
// module), and VM flow demands from Table 2 are whole Gb/s, so an integer
// representation is exact.
type Bandwidth int64

// String renders the bandwidth as e.g. "200Gb/s".
func (b Bandwidth) String() string { return fmt.Sprintf("%dGb/s", int64(b)) }

// Network bandwidth constants from the paper (Tables 1 and 2 and §3.1).
const (
	// LinkCapacity is the capacity of one optical link: eight 25 Gb/s
	// single-mode channels per Luxtera SiP module.
	LinkCapacity Bandwidth = 200

	// CPURAMPerUnit is the CPU-RAM flow demand per RAM unit (Table 2).
	CPURAMPerUnit Bandwidth = 5

	// RAMSTOPerUnit is the RAM-storage flow demand per storage unit
	// (Table 2).
	RAMSTOPerUnit Bandwidth = 1
)

// CPURAMDemand returns the CPU-RAM bandwidth a request needs:
// 5 Gb/s per RAM unit (rounded up to whole units).
func (c Config) CPURAMDemand(req Vector) Bandwidth {
	return CPURAMPerUnit * Bandwidth(c.UnitsCeil(RAM, req[RAM]))
}

// RAMSTODemand returns the RAM-storage bandwidth a request needs:
// 1 Gb/s per storage unit (rounded up to whole units).
func (c Config) RAMSTODemand(req Vector) Bandwidth {
	return RAMSTOPerUnit * Bandwidth(c.UnitsCeil(Storage, req[Storage]))
}
