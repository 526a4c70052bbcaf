package svc

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

func dataItem(tier int) *item {
	return &item{kind: opPlace, tier: tier, res: make(chan response, 1)}
}

// mustAdmit admits one data item or fails the test.
func mustAdmit(t *testing.T, q *queue, it *item) {
	t.Helper()
	if ok, _ := q.enqueueData(it); !ok {
		t.Fatalf("tier %d item rejected with depth %d", it.tier, q.depth())
	}
}

// TestQueueShedOrder pins tier-aware backpressure: a full queue sheds
// the latest-admitted entry of the worst tier to admit a better one,
// and refuses a newcomer that is no better than anything queued.
func TestQueueShedOrder(t *testing.T) {
	q := newQueue(3)
	worst1, worst2, mid := dataItem(2), dataItem(2), dataItem(1)
	mustAdmit(t, q, worst1)
	mustAdmit(t, q, mid)
	mustAdmit(t, q, worst2)

	// Tier 0 arrives: the LATEST tier-2 entry is shed, not the oldest.
	best := dataItem(0)
	mustAdmit(t, q, best)
	select {
	case resp := <-worst2.res:
		if resp.status != 429 || resp.retryAfter < 1 {
			t.Fatalf("shed response = %+v", resp)
		}
	default:
		t.Fatal("latest worst-tier entry was not shed")
	}
	select {
	case <-worst1.res:
		t.Fatal("older worst-tier entry shed too")
	default:
	}

	// Another tier-2 arrival: nothing queued is worse, so it is refused.
	if ok, hint := q.enqueueData(dataItem(2)); ok || hint < 1 {
		t.Fatalf("no-worse newcomer admitted (ok=%v hint=%d)", ok, hint)
	}

	// Service order stays FIFO among survivors: worst1, mid, best.
	for i, want := range []*item{worst1, mid, best} {
		if got := q.pop(); got != want {
			t.Fatalf("pop %d: got tier %d, want tier %d", i, got.tier, want.tier)
		}
	}
}

// TestQueueBarrierNeverShed pins the swap barrier: it bypasses the cap,
// is never chosen as a shed victim, and keeps its FIFO position.
func TestQueueBarrierNeverShed(t *testing.T) {
	q := newQueue(1)
	first := dataItem(0)
	mustAdmit(t, q, first)
	barrier := &item{kind: opSwap, tier: barrierTier, res: make(chan response, 1)}
	mustAdmit(t, q, barrier) // over cap: barriers are not load
	// A tier-0 newcomer cannot shed the tier-0 entry nor the barrier.
	if ok, _ := q.enqueueData(dataItem(0)); ok {
		t.Fatal("newcomer admitted past a full queue with no worse tier")
	}
	if got := q.pop(); got != first {
		t.Fatal("barrier jumped the FIFO order")
	}
	if got := q.pop(); got != barrier {
		t.Fatal("barrier lost its queue position")
	}
}

// TestQueueControlLaneFirst pins that control traffic (mutations,
// reads) is served before queued load.
func TestQueueControlLaneFirst(t *testing.T) {
	q := newQueue(4)
	place := dataItem(0)
	mustAdmit(t, q, place)
	ctrl := &item{kind: opStats, res: make(chan response, 1)}
	if !q.enqueueControl(ctrl) {
		t.Fatal("control item rejected")
	}
	if got := q.pop(); got != ctrl {
		t.Fatal("control lane was not served first")
	}
	if got := q.pop(); got != place {
		t.Fatal("data item lost")
	}
}

// TestQueueCloseDrains pins shutdown: close stops admission but pop
// still drains queued items, then reports exhaustion with nil.
func TestQueueCloseDrains(t *testing.T) {
	q := newQueue(4)
	it := dataItem(1)
	mustAdmit(t, q, it)
	q.close()
	if ok, _ := q.enqueueData(dataItem(0)); ok {
		t.Fatal("admission after close")
	}
	if q.enqueueControl(&item{kind: opStats, res: make(chan response, 1)}) {
		t.Fatal("control admission after close")
	}
	if got := q.pop(); got != it {
		t.Fatal("queued item lost on close")
	}
	done := make(chan *item, 1)
	go func() { done <- q.pop() }()
	select {
	case got := <-done:
		if got != nil {
			t.Fatalf("pop after drain returned %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop did not return nil after close+drain")
	}
}

// TestQueueRejectAll pins the drain-deadline escape hatch: every queued
// item is answered with the given status and the lanes empty.
func TestQueueRejectAll(t *testing.T) {
	q := newQueue(4)
	a, b := dataItem(0), dataItem(2)
	mustAdmit(t, q, a)
	mustAdmit(t, q, b)
	c := &item{kind: opStats, res: make(chan response, 1)}
	q.enqueueControl(c)
	q.rejectAll(503)
	for _, it := range []*item{a, b, c} {
		select {
		case resp := <-it.res:
			if resp.status != 503 {
				t.Fatalf("rejectAll answered %d, want 503", resp.status)
			}
		default:
			t.Fatal("queued item not answered by rejectAll")
		}
	}
	if q.depth() != 0 {
		t.Fatalf("depth after rejectAll = %d", q.depth())
	}
}

// TestQueueShedKeepsCap: shedding a victim and admitting the newcomer is one
// critical section. The victim's reply channel is unbuffered here, so the
// shedding enqueue parks in its send; a second tier-0 newcomer arrives
// while it is parked, after the victim has left the lane. Had the lock been
// dropped between the two, the second newcomer would take the freed slot
// and the shedder, once released, would append past the cap.
func TestQueueShedKeepsCap(t *testing.T) {
	q := newQueue(2)
	mustAdmit(t, q, dataItem(0))
	victim := &item{kind: opPlace, tier: 2, res: make(chan response)}
	mustAdmit(t, q, victim)
	shedder := make(chan bool)
	go func() {
		ok, _ := q.enqueueData(dataItem(0))
		shedder <- ok
	}()
	for queued := true; queued; {
		runtime.Gosched()
		q.mu.Lock()
		queued = slices.Contains(q.data, victim)
		q.mu.Unlock()
	}
	q.enqueueData(dataItem(0))
	if resp := <-victim.res; resp.status != 429 {
		t.Fatalf("victim answered %d, want 429", resp.status)
	}
	if !<-shedder {
		t.Fatal("the newcomer that shed the victim was not admitted")
	}
	if d := q.depth(); d > q.cap {
		t.Fatalf("data lane holds %d, cap %d", d, q.cap)
	}
}
