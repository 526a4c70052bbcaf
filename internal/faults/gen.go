package faults

import (
	"fmt"
	"math"
	"math/rand"
)

// GenConfig parameterizes the stochastic plan generator.
type GenConfig struct {
	// Seed fixes the generated plan completely: every box derives its
	// own random stream from (Seed, box index) via a splitmix64 hash, so
	// plans are reproducible and two boxes' outages are independent but
	// stable — adding racks does not reshuffle the outages of existing
	// ones.
	Seed int64
	// Horizon bounds generation: failures strike strictly before it
	// (repairs may complete after it; the consumer's stop criterion
	// decides whether they matter). Must be positive.
	Horizon int64
	// Racks and BoxesPerRack give the cluster dimensions the plan
	// addresses (match topology.Config.Racks / Config.BoxesPerRack()).
	Racks, BoxesPerRack int
	// MTBF is every box's mean up time between failures in simulated
	// time units: each box alternates exponentially distributed up and
	// down periods (a classic alternating-renewal availability model), so
	// over a long horizon a box is down a fraction MTTR/(MTBF+MTTR) of
	// the time. Zero or negative generates no events; rack outages come
	// from RackFailure or hand-built plans.
	MTBF float64
	// MTTR is the mean down time until repair; must be positive when MTBF
	// is. Down periods are rounded up to at least one time unit so every
	// failure is observable.
	MTTR float64
}

// validate checks the generator configuration.
func (c GenConfig) validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("faults: generator horizon must be positive, got %d", c.Horizon)
	}
	if c.Racks <= 0 || c.BoxesPerRack <= 0 {
		return fmt.Errorf("faults: generator needs cluster dimensions, got %d racks × %d boxes", c.Racks, c.BoxesPerRack)
	}
	if c.MTBF > 0 && c.MTTR <= 0 {
		return fmt.Errorf("faults: box tier has MTBF %g but MTTR %g (must be positive)", c.MTBF, c.MTTR)
	}
	return nil
}

// Generate draws a Plan from the configuration: one independent
// alternating-renewal outage process per box, merged into canonical
// order. The result is a pure function of the configuration.
func Generate(cfg GenConfig) (*Plan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Plan{}
	if cfg.MTBF > 0 {
		for rack := 0; rack < cfg.Racks; rack++ {
			for box := 0; box < cfg.BoxesPerRack; box++ {
				p.Events = cfg.genBox(p.Events, rack, box)
			}
		}
	}
	sortEvents(p.Events)
	return p, nil
}

// genBox appends one box's fail/repair pairs onto events: up periods
// drawn from Exp(MTBF), down periods from Exp(MTTR) rounded up to at
// least one time unit, starting up at t=0 and stopping at the first
// failure on or past the horizon.
func (c GenConfig) genBox(events []Event, rack, box int) []Event {
	rng := unitRNG(c.Seed, rack*c.BoxesPerRack+box)
	t := 0.0
	for {
		failT := int64(math.Round(t + rng.ExpFloat64()*c.MTBF))
		if failT >= c.Horizon {
			return events
		}
		down := int64(math.Round(rng.ExpFloat64() * c.MTTR))
		if down < 1 {
			down = 1
		}
		events = append(events,
			Event{T: failT, Tier: BoxTier, Rack: rack, Box: box},
			Event{T: failT + down, Tier: BoxTier, Rack: rack, Box: box, Repair: true})
		t = float64(failT + down)
	}
}

// unitRNG derives a box's private random stream from the plan seed and
// the box's index via splitmix64.
func unitRNG(seed int64, unit int) *rand.Rand {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ uint64(uint32(unit)))
	return rand.New(rand.NewSource(int64(h)))
}

// splitmix64 is the standard 64-bit finalizer-style mixer (Steele et
// al.), good enough to decorrelate adjacent (seed, unit) pairs.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
