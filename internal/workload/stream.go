package workload

import (
	"fmt"
	"math"
	"math/rand"

	"risa/internal/units"
)

// Stream is a pull-based iterator over VM arrivals: the open-ended
// counterpart of Trace. Next returns the next arrival and true, or a zero
// VM and false once the stream is exhausted; arrivals must be yielded in
// non-decreasing Arrival order. Finite traces adapt via NewTraceStream;
// the generator stream (SyntheticConfig.NewStream) never exhausts and rely on the consumer's stop criterion.
//
// A Stream owns all of its randomness, so a given seed yields one
// arrival sequence regardless of how the consumer interleaves its pulls
// with other work (asserted by TestStreamDeterministicAcrossPullPatterns).
type Stream interface {
	// Name labels the workload the stream produces (Trace.Name's role).
	Name() string
	// Next yields the next arrival, or ok=false when the stream is done.
	Next() (vm VM, ok bool)
}

// UtilizationObserver is implemented by streams whose arrival process
// adapts to cluster feedback. The simulator calls ObserveUtilization with
// the binding (maximum per-resource) compute utilization, as a fraction
// in [0, 1], after every arrival it processes; streams without a
// controller ignore the calls.
type UtilizationObserver interface {
	ObserveUtilization(util float64)
}

// TraceStream adapts a finite, materialized Trace to the Stream
// interface. The simulator consumes every workload through this adapter,
// so finite-trace runs and open-ended runs share one event loop.
type TraceStream struct {
	tr *Trace
	i  int
}

// NewTraceStream returns a Stream yielding the trace's VMs in order.
func NewTraceStream(tr *Trace) *TraceStream { return &TraceStream{tr: tr} }

// Name implements Stream.
func (s *TraceStream) Name() string { return s.tr.Name }

// Next implements Stream.
func (s *TraceStream) Next() (VM, bool) {
	if s.i >= len(s.tr.VMs) {
		return VM{}, false
	}
	vm := s.tr.VMs[s.i]
	s.i++
	return vm, true
}

// Take materializes the next n arrivals of a stream as a Trace (fewer if
// the stream exhausts first). Taking the first N arrivals of a generator
// stream reproduces the finite generator with the same configuration
// exactly: Synthetic is implemented as Take over its own stream.
func Take(s Stream, n int) *Trace {
	tr := &Trace{Name: s.Name(), VMs: make([]VM, 0, n)}
	for i := 0; i < n; i++ {
		vm, ok := s.Next()
		if !ok {
			break
		}
		tr.VMs = append(tr.VMs, vm)
	}
	return tr
}

// Controller constants. The occupancy the controller steers responds to
// rate changes with a lag of one VM lifetime — hundreds of arrivals — so
// the per-observation gain must keep the integrated correction over that
// lag near unity or the loop limit-cycles between overfilling (mass
// drops) and overcorrecting; 0.001 is stable for the repository's
// workloads (≈600–900 arrivals per lifetime). The clamp keeps a
// mis-seeded rate from over- or under-shooting by more than 64×.
const (
	defaultControllerGain = 0.001
	defaultMaxAdjust      = 64.0
)

// UtilizationController steers an open-ended generator's arrival rate so
// the cluster holds a target occupancy: a multiplicative-proportional
// controller on the rate multiplier,
//
//	mult ← clamp(mult · exp(gain · (Target − util)))
//
// with gain defaultControllerGain and the clamp band
// [1/defaultMaxAdjust, defaultMaxAdjust], which is stationary exactly
// when the observed binding-resource utilization equals Target. A Target above 1 can never be reached, so
// the multiplier rises to its clamp and the generator sustains overload —
// that is how the churn experiment's overload rung is expressed.
//
// The controller only scales the gaps a generator draws; it never touches
// the generator's random stream, so two equally-seeded streams yield the
// same request sequence whether or not they are controlled (arrival
// *times* differ, sizes and order do not).
type UtilizationController struct {
	// Target is the desired binding-resource occupancy as a fraction;
	// must be positive.
	Target float64

	mult float64
}

// Validate checks the controller's parameters.
func (c *UtilizationController) Validate() error {
	if c.Target <= 0 {
		return fmt.Errorf("workload: controller target must be positive, got %g", c.Target)
	}
	return nil
}

// Multiplier returns the current rate multiplier (1 before any feedback).
func (c *UtilizationController) Multiplier() float64 {
	if c.mult == 0 {
		return 1
	}
	return c.mult
}

// ObserveUtilization feeds one occupancy observation (a fraction) back
// into the controller.
func (c *UtilizationController) ObserveUtilization(util float64) {
	m := c.Multiplier() * math.Exp(defaultControllerGain*(c.Target-util))
	if m > defaultMaxAdjust {
		m = defaultMaxAdjust
	}
	if m < 1/defaultMaxAdjust {
		m = 1 / defaultMaxAdjust
	}
	c.mult = m
}

// SyntheticStream is the open-ended form of the §5.1 synthetic generator:
// the same request-size distributions and arrival process as Synthetic,
// but unbounded — Next never exhausts and the consumer decides when to
// stop. The finite Synthetic is exactly this stream's first N arrivals.
// Its snapshot codec (StreamState/RestoreStreamState) is in rng.go.
type SyntheticStream struct {
	cfg SyntheticConfig
	src *CountingSource // counts the draws, the stream's snapshot position
	rng *rand.Rand      // draws from src
	now float64         // simulated clock, unrounded
	i   int             // index of the next arrival
}

// NewStream returns the open-ended generator stream for the
// configuration. N is ignored (the stream never exhausts); everything
// else — request ranges, lifetime schedule, seed and optional
// Controller — applies as in Synthetic. For a stationary
// workload (steady-state churn) set LifetimeStep to 0, otherwise the
// per-set lifetime growth makes occupancy drift upward forever.
func (c SyntheticConfig) NewStream() (*SyntheticStream, error) {
	if err := c.validateStream(); err != nil {
		return nil, err
	}
	src := NewCountingSource(c.Seed)
	return &SyntheticStream{cfg: c, src: src, rng: rand.New(src)}, nil
}

// Name implements Stream.
func (s *SyntheticStream) Name() string { return "synthetic" }

// Next implements Stream. It draws exactly one interarrival gap, one CPU
// size and one RAM size per call, in that order — plus one tier draw, the
// call's last, when the tier mix is enabled — so the random stream is
// consumed identically however the caller paces its pulls. The controller
// scales the drawn gap; it never touches the random stream.
func (s *SyntheticStream) Next() (VM, bool) {
	c := &s.cfg
	gap := c.gap(s.rng)
	cpu := c.CPUMin + units.Amount(s.rng.Int63n(int64(c.CPUMax-c.CPUMin)+1))
	ram := c.RAMMin + units.Amount(s.rng.Int63n(int64(c.RAMMax-c.RAMMin)+1))
	if c.Controller != nil {
		gap /= c.Controller.Multiplier()
	}
	s.now += gap
	vm := VM{
		ID:       s.i,
		Arrival:  int64(math.Round(s.now)),
		Lifetime: c.LifetimeBase + c.LifetimeStep*int64(s.i/c.SetSize),
		Req:      units.Vec(cpu, ram, c.StorageGB),
	}
	if c.Tiers.Enabled() {
		vm.Tier = c.Tiers.sample(s.rng)
	}
	s.i++
	return vm, true
}

// ObserveUtilization implements UtilizationObserver by forwarding to the
// configured Controller, if any.
func (s *SyntheticStream) ObserveUtilization(util float64) {
	if s.cfg.Controller != nil {
		s.cfg.Controller.ObserveUtilization(util)
	}
}

// Controller returns the configured rate controller (nil when the stream
// is uncontrolled).
func (s *SyntheticStream) Controller() *UtilizationController { return s.cfg.Controller }
