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
// the generator streams (SyntheticConfig.NewStream, NewAzureEmpirical)
// never exhaust and rely on the consumer's stop criterion.
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

// generator is the part the open-ended generator streams share: the
// counted random source and the generator over it, the simulated clock
// and arrival index, the optional rate controller and the tier mix. It
// carries their one snapshot codec (StreamState/RestoreStreamState in
// rng.go) and the tail every arrival ends with (emit); a stream's Next
// keeps only its own draws.
type generator struct {
	name  string
	seed  int64
	src   *CountingSource
	rng   *rand.Rand
	now   float64
	i     int
	ctl   *UtilizationController
	tiers TierMix
}

// newGenerator seeds a generator at its first arrival.
func newGenerator(name string, seed int64, ctl *UtilizationController, tiers TierMix) generator {
	src := NewCountingSource(seed)
	return generator{name: name, seed: seed, src: src, rng: rand.New(src), ctl: ctl, tiers: tiers}
}

// Name implements Stream.
func (g *generator) Name() string { return g.name }

// emit ends one Next: the controller scales the drawn gap (it never
// touches the random stream), the clock advances by it, and the VM gets
// the next index — plus one tier draw, the call's last, when the tier mix
// is enabled.
func (g *generator) emit(gap float64, lifetime int64, req units.Vector) (VM, bool) {
	if g.ctl != nil {
		gap /= g.ctl.Multiplier()
	}
	g.now += gap
	vm := VM{ID: g.i, Arrival: int64(math.Round(g.now)), Lifetime: lifetime, Req: req}
	if g.tiers.Enabled() {
		vm.Tier = g.tiers.sample(g.rng)
	}
	g.i++
	return vm, true
}

// ObserveUtilization implements UtilizationObserver by forwarding to the
// configured Controller, if any.
func (g *generator) ObserveUtilization(util float64) {
	if g.ctl != nil {
		g.ctl.ObserveUtilization(util)
	}
}

// Controller returns the configured rate controller (nil when the stream
// is uncontrolled).
func (g *generator) Controller() *UtilizationController { return g.ctl }

// SyntheticStream is the open-ended form of the §5.1 synthetic generator:
// the same request-size distributions and arrival process as Synthetic,
// but unbounded — Next never exhausts and the consumer decides when to
// stop. The finite Synthetic is exactly this stream's first N arrivals.
type SyntheticStream struct {
	generator
	cfg SyntheticConfig
}

// NewStream returns the open-ended generator stream for the
// configuration. N is ignored (the stream never exhausts); everything
// else — arrival model, request ranges, lifetime schedule, seed and
// optional Controller — applies as in Synthetic. For a stationary
// workload (steady-state churn) set LifetimeStep to 0, otherwise the
// per-set lifetime growth makes occupancy drift upward forever.
func (c SyntheticConfig) NewStream() (*SyntheticStream, error) {
	if err := c.validateStream(); err != nil {
		return nil, err
	}
	name := "synthetic"
	if c.Arrivals != Poisson {
		name += "-" + c.Arrivals.String()
	}
	return &SyntheticStream{generator: newGenerator(name, c.Seed, c.Controller, c.Tiers), cfg: c}, nil
}

// Next implements Stream. It draws exactly one interarrival gap, one CPU
// size and one RAM size per call, in that order — plus emit's tier draw —
// so the random stream is consumed identically however the caller paces
// its pulls.
func (s *SyntheticStream) Next() (VM, bool) {
	c := &s.cfg
	gap := c.gap(s.rng, s.now)
	cpu := c.CPUMin + units.Amount(s.rng.Int63n(int64(c.CPUMax-c.CPUMin)+1))
	ram := c.RAMMin + units.Amount(s.rng.Int63n(int64(c.RAMMax-c.RAMMin)+1))
	return s.emit(gap, c.LifetimeBase+c.LifetimeStep*int64(s.i/c.SetSize), units.Vec(cpu, ram, c.StorageGB))
}

// AzureEmpiricalConfig parameterizes the open-ended Azure-empirical
// generator: CPU and RAM sizes are resampled with replacement from the
// paper's Figure 6 per-subset histograms (so the long-run marginals
// converge to the empirical ones instead of matching them exactly like
// the finite AzureLike), lifetimes are exponential, arrivals Poisson.
// Zero-valued fields fall back to the same defaults as AzureConfig.
type AzureEmpiricalConfig struct {
	Subset           AzureSubset
	MeanInterarrival float64      // default 10, like the synthetic workload
	LifetimeMean     float64      // default per-subset calibrated value
	StorageGB        units.Amount // default 128
	Seed             int64
	// Controller optionally steers the arrival rate toward a target
	// occupancy (see UtilizationController).
	Controller *UtilizationController
	// Tiers, when enabled, draws a priority tier per VM from the mix
	// (one extra RNG draw at the end of each Next); the zero value keeps
	// the random stream bit-identical to pre-tier runs.
	Tiers TierMix
}

// AzureEmpiricalStream resamples the Azure request mix open-endedly.
type AzureEmpiricalStream struct {
	generator
	cfg      AzureEmpiricalConfig
	cpu, ram cumulativeHist
}

// NewAzureEmpirical returns the open-ended Azure-empirical stream.
func NewAzureEmpirical(c AzureEmpiricalConfig) (*AzureEmpiricalStream, error) {
	spec, err := Spec(c.Subset)
	if err != nil {
		return nil, err
	}
	if c.MeanInterarrival == 0 {
		c.MeanInterarrival = 10
	}
	if c.LifetimeMean == 0 {
		c.LifetimeMean = spec.DefaultLifetimeMean
	}
	if c.StorageGB == 0 {
		c.StorageGB = 128
	}
	if c.MeanInterarrival < 0 || c.LifetimeMean < 0 || c.StorageGB < 0 {
		return nil, fmt.Errorf("workload: negative azure-empirical parameters (interarrival %g, lifetime %g, storage %d)",
			c.MeanInterarrival, c.LifetimeMean, c.StorageGB)
	}
	if c.Controller != nil {
		if err := c.Controller.Validate(); err != nil {
			return nil, err
		}
	}
	if err := c.Tiers.Validate(); err != nil {
		return nil, err
	}
	return &AzureEmpiricalStream{
		generator: newGenerator("azure-empirical-"+spec.Name, c.Seed, c.Controller, c.Tiers),
		cfg:       c,
		cpu:       newCumulativeHist(spec.CPU),
		ram:       newCumulativeHist(spec.RAM),
	}, nil
}

// Next implements Stream. Per call it draws one gap, one CPU sample, one
// RAM sample and one lifetime, in that order — plus emit's tier draw.
func (s *AzureEmpiricalStream) Next() (VM, bool) {
	gap := s.rng.ExpFloat64() * s.cfg.MeanInterarrival
	cpu := s.cpu.sample(s.rng)
	ram := s.ram.sample(s.rng)
	life := max(1, int64(math.Round(s.rng.ExpFloat64()*s.cfg.LifetimeMean)))
	return s.emit(gap, life, units.Vec(cpu, ram, s.cfg.StorageGB))
}

// cumulativeHist supports weighted sampling with replacement from a
// ValueCount histogram.
type cumulativeHist struct {
	values []units.Amount
	cum    []int64 // cum[i] = Σ counts[0..i]
	total  int64
}

// newCumulativeHist precomputes the cumulative counts.
func newCumulativeHist(bars []ValueCount) cumulativeHist {
	h := cumulativeHist{
		values: make([]units.Amount, len(bars)),
		cum:    make([]int64, len(bars)),
	}
	for i, b := range bars {
		h.total += int64(b.Count)
		h.values[i] = b.Value
		h.cum[i] = h.total
	}
	return h
}

// sample draws one value with probability proportional to its count.
func (h cumulativeHist) sample(rng *rand.Rand) units.Amount {
	x := rng.Int63n(h.total)
	for i, c := range h.cum {
		if x < c {
			return h.values[i]
		}
	}
	return h.values[len(h.values)-1] // unreachable: cum[last] == total
}
