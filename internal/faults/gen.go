package faults

import (
	"fmt"
	"math"
	"math/rand"
)

// TierRates parameterizes one tier's outage process: every unit of the
// tier alternates exponentially distributed up and down periods (a
// classic alternating-renewal availability model), so over a long horizon
// a unit is down a fraction MTTR/(MTBF+MTTR) of the time. The generator
// draws the box tier; rack outages come from RackFailure or hand-built
// plans.
type TierRates struct {
	// MTBF is the mean up time between failures in simulated time units;
	// zero or negative disables the tier.
	MTBF float64
	// MTTR is the mean down time until repair; must be positive when the
	// tier is enabled. Down periods are rounded up to at least one time
	// unit so every failure is observable.
	MTTR float64
}

// enabled reports whether the tier generates any events.
func (r TierRates) enabled() bool { return r.MTBF > 0 }

// GenConfig parameterizes the stochastic plan generator.
type GenConfig struct {
	// Seed fixes the generated plan completely: every box derives its
	// own random stream from (Seed, BoxTier, box index) via a splitmix64
	// hash, so plans are reproducible and two boxes' outages are
	// independent but stable — adding racks does not reshuffle the
	// outages of existing ones.
	Seed int64
	// Horizon bounds generation: failures strike strictly before it
	// (repairs may complete after it; the consumer's stop criterion
	// decides whether they matter). Must be positive.
	Horizon int64
	// Racks and BoxesPerRack give the cluster dimensions the plan
	// addresses (match topology.Config.Racks / Config.BoxesPerRack()).
	Racks, BoxesPerRack int
	// Box is every box's outage process; a disabled one generates no
	// events.
	Box TierRates
}

// validate checks the generator configuration.
func (c GenConfig) validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("faults: generator horizon must be positive, got %d", c.Horizon)
	}
	if c.Racks <= 0 || c.BoxesPerRack <= 0 {
		return fmt.Errorf("faults: generator needs cluster dimensions, got %d racks × %d boxes", c.Racks, c.BoxesPerRack)
	}
	if c.Box.enabled() && c.Box.MTTR <= 0 {
		return fmt.Errorf("faults: box tier has MTBF %g but MTTR %g (must be positive)", c.Box.MTBF, c.Box.MTTR)
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
	if cfg.Box.enabled() {
		for rack := 0; rack < cfg.Racks; rack++ {
			for box := 0; box < cfg.BoxesPerRack; box++ {
				unit := rack*cfg.BoxesPerRack + box
				p.Events = genUnit(p.Events, cfg.Box, cfg.Horizon,
					unitRNG(cfg.Seed, BoxTier, unit),
					Event{Tier: BoxTier, Rack: rack, Box: box})
			}
		}
	}
	sortEvents(p.Events)
	return p, nil
}

// genUnit appends one unit's fail/repair pairs onto events: up periods
// drawn from Exp(MTBF), down periods from Exp(MTTR) rounded up to at
// least one time unit, starting up at t=0 and stopping at the first
// failure on or past the horizon. proto carries the unit's addressing.
func genUnit(events []Event, rates TierRates, horizon int64, rng *rand.Rand, proto Event) []Event {
	t := 0.0
	for {
		failT := int64(math.Round(t + rng.ExpFloat64()*rates.MTBF))
		if failT >= horizon {
			return events
		}
		down := int64(math.Round(rng.ExpFloat64() * rates.MTTR))
		if down < 1 {
			down = 1
		}
		fail, repair := proto, proto
		fail.T = failT
		repair.T = failT + down
		repair.Repair = true
		events = append(events, fail, repair)
		t = float64(repair.T)
	}
}

// unitRNG derives a unit's private random stream from the plan seed and
// the unit's (tier, index) address via splitmix64.
func unitRNG(seed int64, tier Tier, unit int) *rand.Rand {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ uint64(tier)<<32 ^ uint64(uint32(unit)))
	return rand.New(rand.NewSource(int64(h)))
}

// splitmix64 is the standard 64-bit finalizer-style mixer (Steele et
// al.), good enough to decorrelate adjacent (seed, tier, unit) triples.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
