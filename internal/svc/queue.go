package svc

import (
	"context"
	"sync"

	"risa/internal/faults"
	"risa/internal/workload"
)

// opKind discriminates the operations that flow through the admission
// queue to the worker loop.
type opKind int

const (
	opPlace opKind = iota
	opMutate
	opAddRack
	opSwap
	opStats
	opPlacements
	opSnapshot
)

// item is one queued operation plus its reply channel. Placement items
// carry the request context so an expired or abandoned request can be
// dropped at dequeue without ever touching the engine, and the clock
// readings of their stages (the handler's and the worker's, ordered by
// the queue and the reply channel).
type item struct {
	ctx   context.Context
	kind  opKind
	tier  int // shed priority; barrierTier entries are never shed
	vm    workload.VM
	fault faults.Event
	algo  string
	res   chan response
	at    stamps
}

// barrierTier marks data-lane entries that must never be shed: a queued
// scheduler swap is a FIFO barrier, not sheddable load.
const barrierTier = -1

// response is the worker's (or the queue's, for shed entries) reply.
// Every item's res channel must be buffered (capacity 1): exactly one
// response is ever sent per item, and the sender must never block on a
// handler that gave up waiting.
type response struct {
	status     int // HTTP status semantics
	retryAfter int // seconds hint, set with status 429
	outcome    Outcome
	body       any    // JSON payload for non-place operations
	text       []byte // plain-text payload (placement log)
	err        error
}

// queue is the daemon's bounded admission queue. Two lanes share one
// lock: the data lane (placements and the swap barrier) is bounded and
// strictly FIFO — service order is admission order, so a queued swap
// separates old-algorithm decisions from new — and the control lane
// (mutations, reads) is unbounded and always served first, which is how
// live mutations land "between decisions" without waiting behind load.
//
// Tier-aware backpressure: when the data lane is full, the queue sheds
// the latest-admitted entry of the worst (numerically highest) tier
// strictly worse than the newcomer's — tier 2 spot load is pushed out
// before tier 0 is ever refused — and the shed request is answered 429
// with a depth-scaled Retry-After. A newcomer no better than everything
// queued is itself refused.
type queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	data    []*item
	control []*item
	cap     int
	closed  bool
}

func newQueue(capacity int) *queue {
	q := &queue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// enqueueData admits one data-lane item, shedding a worse-tier entry if
// the lane is full. It reports whether the item was admitted; when it
// was not, the caller answers 429 with the returned Retry-After hint.
// Shedding the victim and admitting the newcomer is one critical section:
// the victim is answered only after the lock is dropped.
func (q *queue) enqueueData(it *item) (admitted bool, retryAfter int) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false, 1
	}
	var shed *item
	var hint int
	if len(q.data) >= q.cap && it.tier != barrierTier {
		victim := -1
		worst := it.tier
		for i, d := range q.data {
			if d.tier >= worst { // >= : prefer the latest-admitted of the worst tier
				worst = d.tier
				if d.tier > it.tier {
					victim = i
				}
			}
		}
		if victim < 0 {
			hint = q.retryAfterLocked()
			q.mu.Unlock()
			return false, hint
		}
		shed = q.data[victim]
		q.data = append(q.data[:victim], q.data[victim+1:]...)
		hint = q.retryAfterLocked()
	}
	q.data = append(q.data, it)
	q.cond.Signal()
	q.mu.Unlock()
	if shed != nil {
		shed.res <- response{status: 429, retryAfter: hint}
	}
	return true, 0
}

// enqueueControl admits one control-lane item; the lane is unbounded
// (operator traffic, not load).
func (q *queue) enqueueControl(it *item) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.control = append(q.control, it)
	q.cond.Signal()
	return true
}

// pop blocks for the next item — control lane first — and returns nil
// once the queue is closed and fully drained.
func (q *queue) pop() *item {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.control) > 0 {
			it := q.control[0]
			q.control = q.control[1:]
			return it
		}
		if len(q.data) > 0 {
			it := q.data[0]
			q.data = q.data[1:]
			return it
		}
		if q.closed {
			return nil
		}
		q.cond.Wait()
	}
}

// depth returns the data-lane occupancy.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.data)
}

// close stops admission; pop keeps returning queued items until both
// lanes are empty, then nil.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// rejectAll answers every queued item with status (the drain-deadline
// escape hatch) and empties both lanes.
func (q *queue) rejectAll(status int) {
	q.mu.Lock()
	items := append(append([]*item(nil), q.control...), q.data...)
	q.control, q.data = nil, nil
	q.cond.Broadcast()
	q.mu.Unlock()
	for _, it := range items {
		it.res <- response{status: status}
	}
}

// retryAfterLocked scales the Retry-After hint with queue depth: a just-
// full queue suggests 1 s, a deeply backed-up one proportionally more.
func (q *queue) retryAfterLocked() int {
	return 1 + len(q.data)/64
}
