package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// TierMix is the priority-tier distribution of a generated workload: a
// weight per tier, sampled independently for each arrival. The zero value
// is "tiers disabled" — generators draw nothing from the RNG and every VM
// stays tier 0, so pre-tier workloads remain bit-identical draw for draw.
type TierMix struct {
	// Weights holds one non-negative weight per tier; they need not sum
	// to 1 (the sampler normalizes). All-zero disables tier sampling.
	Weights [NumTiers]float64
}

// DefaultTierMix returns the production-like mix used by the SLO ladder:
// 20% tier-0 (critical), 30% tier-1 (standard), 50% tier-2 (spot-like) —
// the rough shape of the priority classes in the Azure trace line.
func DefaultTierMix() TierMix {
	return TierMix{Weights: [NumTiers]float64{0.2, 0.3, 0.5}}
}

// Enabled reports whether any tier weight is set; disabled mixes consume
// no RNG draws and assign tier 0 to every VM.
func (m TierMix) Enabled() bool {
	for _, w := range m.Weights {
		if w != 0 {
			return true
		}
	}
	return false
}

// Validate rejects negative and NaN weights and weights whose sum is
// infinite; an all-zero mix is valid (disabled). A non-finite total would
// make every draw in sample land on the last positive tier.
func (m TierMix) Validate() error {
	var total float64
	for t, w := range m.Weights {
		if !(w >= 0) {
			return fmt.Errorf("workload: tier %d weight %g is negative or NaN", t, w)
		}
		total += w
	}
	if math.IsInf(total, 1) {
		return fmt.Errorf("workload: tier weights %v sum to +Inf", m.Weights)
	}
	return nil
}

// sample draws one tier from the mix using a single uniform variate from
// rng. Callers must only invoke it when Enabled() — the draw is part of
// the stream's counted RNG sequence, so whether it happens at all must be
// a pure function of the config.
func (m TierMix) sample(rng *rand.Rand) int {
	var total float64
	for _, w := range m.Weights {
		total += w
	}
	x := rng.Float64() * total
	for t, w := range m.Weights {
		x -= w
		if x < 0 && w > 0 {
			return t
		}
	}
	// Floating-point tail: land on the last tier with positive weight.
	for t := NumTiers - 1; t >= 0; t-- {
		if m.Weights[t] > 0 {
			return t
		}
	}
	return 0
}
