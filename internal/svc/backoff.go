package svc

import (
	"math/rand"
	"time"
)

// Backoff computes capped exponential retry delays with seeded jitter,
// for clients retrying into a full admission queue (cmd/workloadgen, or
// any internal retry path). Without backoff a shed client
// spins on the daemon at line rate, turning backpressure into load; the
// cap bounds the worst-case retry gap and the jitter decorrelates
// retrying clients so they do not re-arrive in lockstep.
//
// Delays follow "equal jitter": attempt n draws uniformly from
// [ceil/2, ceil) where ceil = min(Cap, Base·2ⁿ). Every delay is
// positive and strictly below Cap, growth stops at the cap, and the
// sequence is deterministic for a given seed — which is what
// TestRetryBackoffBounded pins.
type Backoff struct {
	// Base is the first attempt's delay ceiling; Cap bounds every
	// ceiling after doubling.
	Base, Cap time.Duration

	attempt int
	rng     *rand.Rand
}

// NewBackoff builds a backoff with its own seeded jitter stream.
// Non-positive Base or Cap fall back to 10ms / 2s.
func NewBackoff(base, cap time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if cap <= 0 {
		cap = 2 * time.Second
	}
	if base > cap {
		base = cap
	}
	return &Backoff{Base: base, Cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next retry delay and advances the attempt counter.
func (b *Backoff) Next() time.Duration {
	ceil := b.Base << uint(b.attempt)
	if ceil <= 0 || ceil > b.Cap { // <<= overflow lands here too
		ceil = b.Cap
	} else {
		b.attempt++
	}
	half := ceil / 2
	if half <= 0 {
		return ceil
	}
	return half + time.Duration(b.rng.Int63n(int64(half)))
}

// Reset rewinds the attempt counter (after a success) without touching
// the jitter stream.
func (b *Backoff) Reset() { b.attempt = 0 }
