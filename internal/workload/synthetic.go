package workload

import (
	"fmt"
	"math/rand"

	"risa/internal/units"
)

// SyntheticConfig describes the paper's §5.1 synthetic random workload:
// CPU uniform in 1..32 cores, RAM uniform in 1..32 GB, storage fixed at
// 128 GB, Poisson arrivals with a mean interarrival of 10 time units, and
// a lifetime of 6300 time units that grows by 360 for every completed set
// of 100 requests. 2500 VMs in total.
type SyntheticConfig struct {
	N                int          // number of VMs
	MeanInterarrival float64      // mean of the interarrival gap
	CPUMin, CPUMax   units.Amount // cores, inclusive uniform range
	RAMMin, RAMMax   units.Amount // GB, inclusive uniform range
	StorageGB        units.Amount // fixed storage per VM
	LifetimeBase     int64        // lifetime of the first set of VMs
	LifetimeStep     int64        // lifetime increment per completed set
	SetSize          int          // requests per lifetime set
	Seed             int64

	// Controller, when non-nil, scales the arrival rate by the
	// controller's multiplier — only meaningful for the open-ended
	// NewStream form, where the simulator feeds occupancy back (see
	// UtilizationController). The finite Synthetic never receives
	// feedback, so a controller leaves it unchanged.
	Controller *UtilizationController

	// Tiers, when enabled, draws a priority tier per VM from the mix
	// (one extra RNG draw at the end of each Next). The zero value keeps
	// the generator's random stream bit-identical to pre-tier runs.
	Tiers TierMix
}

// DefaultSyntheticConfig returns the paper's exact parameters.
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		N:                2500,
		MeanInterarrival: 10,
		CPUMin:           1, CPUMax: 32,
		RAMMin: 1, RAMMax: 32,
		StorageGB:    128,
		LifetimeBase: 6300,
		LifetimeStep: 360,
		SetSize:      100,
		Seed:         1,
	}
}

// Validate checks generator sanity for the finite Synthetic form.
func (c SyntheticConfig) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("workload: synthetic N must be positive, got %d", c.N)
	}
	return c.validateStream()
}

// validateStream checks everything Validate does except N, which the
// open-ended stream form ignores.
func (c SyntheticConfig) validateStream() error {
	if c.MeanInterarrival <= 0 {
		return fmt.Errorf("workload: mean interarrival must be positive, got %g", c.MeanInterarrival)
	}
	if c.CPUMin <= 0 || c.CPUMax < c.CPUMin {
		return fmt.Errorf("workload: bad CPU range [%d,%d]", c.CPUMin, c.CPUMax)
	}
	if c.RAMMin <= 0 || c.RAMMax < c.RAMMin {
		return fmt.Errorf("workload: bad RAM range [%d,%d]", c.RAMMin, c.RAMMax)
	}
	if c.StorageGB <= 0 {
		return fmt.Errorf("workload: storage must be positive, got %d", c.StorageGB)
	}
	if c.LifetimeBase <= 0 || c.LifetimeStep < 0 || c.SetSize <= 0 {
		return fmt.Errorf("workload: bad lifetime schedule base=%d step=%d set=%d",
			c.LifetimeBase, c.LifetimeStep, c.SetSize)
	}
	if c.Controller != nil {
		if err := c.Controller.Validate(); err != nil {
			return err
		}
	}
	return c.Tiers.Validate()
}

// gap draws one exponential interarrival gap: the paper's Poisson
// process, the generator's only one. Pointer receiver: the stream calls
// it once per arrival and the config is ~25 words.
func (c *SyntheticConfig) gap(rng *rand.Rand) float64 {
	return rng.ExpFloat64() * c.MeanInterarrival
}

// Synthetic generates the workload deterministically from c.Seed: the
// first N arrivals of the open-ended stream with the same configuration
// (see SyntheticConfig.NewStream), so finite traces and streams with one
// seed agree arrival for arrival.
func Synthetic(c SyntheticConfig) (*Trace, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s, err := c.NewStream()
	if err != nil {
		return nil, err
	}
	return Take(s, c.N), nil
}
