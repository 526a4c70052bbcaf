package sim

import (
	"math"
	"time"
)

// ticks reads the decision clock: the timestamp counter once
// calibrateClock has selected it, else monoTicks.
func ticks() int64

// rdtsc reads the timestamp counter, unfenced.
func rdtsc() int64

// cpuid executes CPUID for leaf, subleaf 0.
func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)

const (
	// costReads reads make one sample of a clock's read cost; the
	// cheapest of costRounds samples counts, so a preemption inside one
	// sample cannot flip the selection.
	costReads  = 1000
	costRounds = 3
	// calibrationSpan separates the two stamps the counter period is
	// measured between: over 1 ms, as over 100 µs, the ratio reads
	// within 0.001 % of a 2 s calibration on a 2.1 GHz Xeon.
	calibrationSpan = time.Millisecond
	// stampRounds brackets are taken per stamp; the narrowest counts.
	stampRounds = 8
)

// invariantTSC reports CPUID.80000007H:EDX[8], the invariant-TSC bit: the
// counter ticks at a constant rate through P-, C- and T-state changes.
func invariantTSC() bool {
	if maxLeaf, _, _, _ := cpuid(0x80000000); maxLeaf < 0x80000007 {
		return false
	}
	_, _, _, edx := cpuid(0x80000007)
	return edx&(1<<8) != 0
}

// calibrateClock selects the counter by useCounter and measures its
// period against the monotonic clock. It runs once per process (see
// initClock), outside every timed decision.
func calibrateClock() {
	if !useCounter(invariantTSC(), readCost(rdtsc), readCost(monoTicks)) {
		return
	}
	c0, t0 := stamp()
	time.Sleep(calibrationSpan)
	c1, t1 := stamp()
	if c1 <= c0 || t1 <= t0 {
		return
	}
	nsPerTick = float64(t1-t0) / float64(c1-c0)
	counterOn = 1
}

// readCost is the cheapest per-read cost of read, in nanoseconds, over
// costRounds samples.
func readCost(read func() int64) float64 {
	best := math.Inf(1)
	for r := 0; r < costRounds; r++ {
		start := time.Now()
		for i := 0; i < costReads; i++ {
			read()
		}
		best = math.Min(best, float64(time.Since(start))/costReads)
	}
	return best
}

// stamp pairs a counter value with a monotonic reading: the counter is
// read on both sides of one monotonic read, the midpoint stands for the
// instant of that read, and the narrowest of stampRounds brackets counts.
func stamp() (c int64, t time.Duration) {
	width := int64(math.MaxInt64)
	for i := 0; i < stampRounds; i++ {
		c0 := rdtsc()
		m := time.Since(epoch)
		c1 := rdtsc()
		if w := c1 - c0; w >= 0 && w < width {
			width, c, t = w, c0+w/2, m
		}
	}
	return c, t
}
