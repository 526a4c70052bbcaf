//go:build !amd64

package sim

// ticks is the monotonic clock: only amd64 reads the timestamp counter.
func ticks() int64 { return monoTicks() }

// calibrateClock keeps the monotonic clock.
func calibrateClock() {}
