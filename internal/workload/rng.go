package workload

import (
	"fmt"
	"math/rand"
)

// CountingSource wraps math/rand's default Source64 and counts how many
// times the source has been stepped. Because both Int63 and Uint64
// advance the underlying generator by exactly one step, the count fully
// determines the generator's position regardless of which mix of
// distribution methods (ExpFloat64, Int63n with its rejection loop,
// Float64, ...) consumed the draws. That makes the source snapshottable
// with two numbers — seed and draw count — and restorable by replay:
// reseed and step Draws() times.
//
// rand.New type-asserts Source64 at construction and delegates Int63 and
// Uint64 straight to the source, so a rand.Rand over a CountingSource
// produces bit-identical value sequences to one over the bare source
// with the same seed.
type CountingSource struct {
	src rand.Source64
	n   uint64
}

// NewCountingSource returns a counting source seeded like
// rand.NewSource(seed).
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (s *CountingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

// Uint64 implements rand.Source64.
func (s *CountingSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

// Seed implements rand.Source: it reseeds the generator and resets the
// draw count.
func (s *CountingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// Draws returns how many times the source has been stepped since it was
// last (re)seeded.
func (s *CountingSource) Draws() uint64 { return s.n }

// Replay repositions the source at exactly draws steps past seed: the
// state of a source seeded with seed once Draws reports draws.
func (s *CountingSource) Replay(seed int64, draws uint64) {
	s.Seed(seed)
	for i := uint64(0); i < draws; i++ {
		s.src.Int63()
	}
	s.n = draws
}

// StreamState is the serializable position of a workload stream: enough
// to rebuild an equally-configured stream mid-sequence so it yields the
// exact arrivals the original would have yielded next. Generator streams
// record their RNG position as a draw count (see CountingSource) plus
// the simulated clock and arrival index; trace streams only need the
// index. ControllerMult preserves the rate controller's multiplier for
// controlled streams (1 for uncontrolled ones).
type StreamState struct {
	Name           string
	Index          int
	Now            float64
	Draws          uint64
	ControllerMult float64
}

// StreamSnapshotter is implemented by streams that can capture and
// restore their position. RestoreStreamState must only be called on a
// pristine stream built with the same configuration (same seed, same
// distributions) as the one that produced the state; the Name field
// guards against gross mismatches.
type StreamSnapshotter interface {
	// StreamState captures the stream's position without perturbing it.
	StreamState() StreamState
	// RestoreStreamState repositions the stream. It fails if the state's
	// Name does not match the stream's.
	RestoreStreamState(st StreamState) error
}

// checkStreamName rejects state captured from a differently-named stream.
func checkStreamName(got, want string) error {
	if got != want {
		return fmt.Errorf("workload: stream state is for %q, not %q", got, want)
	}
	return nil
}

// StreamState implements StreamSnapshotter.
func (s *TraceStream) StreamState() StreamState {
	return StreamState{Name: s.Name(), Index: s.i, ControllerMult: 1}
}

// RestoreStreamState implements StreamSnapshotter.
func (s *TraceStream) RestoreStreamState(st StreamState) error {
	if err := checkStreamName(st.Name, s.Name()); err != nil {
		return err
	}
	if st.Index < 0 || st.Index > len(s.tr.VMs) {
		return fmt.Errorf("workload: stream index %d out of range for trace of %d VMs", st.Index, len(s.tr.VMs))
	}
	s.i = st.Index
	return nil
}

// StreamState implements StreamSnapshotter for every generator stream.
func (g *generator) StreamState() StreamState {
	st := StreamState{Name: g.name, Index: g.i, Now: g.now, Draws: g.src.Draws(), ControllerMult: 1}
	if g.ctl != nil {
		st.ControllerMult = g.ctl.Multiplier()
	}
	return st
}

// RestoreStreamState implements StreamSnapshotter for every generator
// stream: the random source is replayed to its draw count, the clock,
// index and controller multiplier written back.
func (g *generator) RestoreStreamState(st StreamState) error {
	if err := checkStreamName(st.Name, g.name); err != nil {
		return err
	}
	g.src.Replay(g.seed, st.Draws)
	g.i, g.now = st.Index, st.Now
	if g.ctl != nil {
		g.ctl.mult = st.ControllerMult
	}
	return nil
}
