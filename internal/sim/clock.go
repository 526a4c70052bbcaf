package sim

import (
	"sync"
	"time"
)

// The decision clock. Every measured decision, displacement and
// preemption attempt reads its two edges through now and since. On amd64
// with an invariant timestamp counter the edges are raw counter reads
// (ticks, clock_amd64.s: one unfenced RDTSC, about half the cost of a
// monotonic read) and since converts their difference to nanoseconds
// with nsPerTick, calibrated once per process against the monotonic
// clock. Anywhere else ticks is monoTicks and nsPerTick stays 1.
//
// The read path loads plain package values: calibrateClock writes them
// once, under clockOnce, before any event core with an observer exists,
// and nothing writes them again.
//
// The RDTSC is unfenced, so the CPU may execute it a little before or
// after the instructions around it. The skew is bounded by the
// out-of-order window: tens of nanoseconds against decisions of hundreds.
// A fenced read (LFENCE;RDTSC or RDTSCP) costs most of what it saves.

// epoch is the origin of the monotonic fallback: time.Since is one
// monotonic clock read, where time.Now also reads the wall clock.
var epoch = time.Now()

var (
	clockOnce sync.Once
	// counterOn selects the counter; ticks reads it (a byte, for the
	// assembly's one compare).
	counterOn uint8
	// nsPerTick converts a tick delta to nanoseconds: the calibrated
	// counter period, or 1 while ticks are monotonic nanoseconds.
	nsPerTick = 1.0
)

// now reads one decision-clock edge, in ticks.
func now() int64 { return ticks() }

// since is the time from the edge start to now, in nanoseconds. A
// negative delta — counters skewed across CPUs the goroutine moved
// between — reads 0.
func since(start int64) time.Duration {
	d := ticks() - start
	if d < 0 {
		return 0
	}
	return time.Duration(float64(d) * nsPerTick)
}

// monoTicks is the fallback decision clock: monotonic nanoseconds since
// epoch.
func monoTicks() int64 { return int64(time.Since(epoch)) }

// useCounter is the selection rule: the counter times decisions only
// when it is invariant (constant rate across P-states, running in deep
// C-states) and a read costs no more than a monotonic read — a host that
// traps RDTSC makes it the dearer clock.
func useCounter(invariant bool, counterNs, monoNs float64) bool {
	return invariant && counterNs <= monoNs
}

// initClock calibrates the decision clock once per process.
func initClock() { clockOnce.Do(calibrateClock) }
