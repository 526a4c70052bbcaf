package sim

import (
	"container/heap"
	"math/rand"
	"testing"

	"risa/internal/sched"
	"risa/internal/workload"
)

// sameEvent compares the comparable projection of two events (the do
// field is a func and only compares against nil).
func sameEvent(a, b event) bool {
	return a.t == b.t && a.kind == b.kind && a.seq == b.seq && a.vm == b.vm && a.a == b.a
}

// isZeroEvent reports whether e holds nothing.
func isZeroEvent(e event) bool {
	return e.t == 0 && e.kind == 0 && e.seq == 0 &&
		e.vm == (workload.VM{}) && e.a == nil
}

// refHeap is a minimal container/heap implementation over events — the
// code the 4-ary heap replaced — kept as the test oracle.
type refHeap []event

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].Less(h[j]) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestHeap4MatchesContainerHeap drives the 4-ary heap and the
// container/heap oracle with the same random push/pop sequence and
// requires identical pops throughout — the property behind the
// bit-identical experiment outputs.
func TestHeap4MatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var h eventQueue
		var ref refHeap
		seq := 0
		for step := 0; step < 400; step++ {
			if h.Len() != ref.Len() {
				t.Fatalf("trial %d step %d: len %d vs oracle %d", trial, step, h.Len(), ref.Len())
			}
			if h.Len() == 0 || rng.Intn(3) > 0 {
				e := event{
					t:    int64(rng.Intn(50)),
					kind: eventKind(rng.Intn(3)),
					seq:  seq,
				}
				seq++
				h.Push(e)
				heap.Push(&ref, e)
				continue
			}
			got := h.Pop()
			want := heap.Pop(&ref).(event)
			if !sameEvent(got, want) {
				t.Fatalf("trial %d step %d: popped %+v, oracle %+v", trial, step, got, want)
			}
		}
		for h.Len() > 0 {
			got := h.Pop()
			want := heap.Pop(&ref).(event)
			if !sameEvent(got, want) {
				t.Fatalf("trial %d drain: popped %+v, oracle %+v", trial, got, want)
			}
		}
	}
}

// TestHeap4OrdersSimultaneousEvents pins the simulator's event ordering
// contract: at one timestamp, faults fire before departures before
// arrivals, FIFO within a class.
func TestHeap4OrdersSimultaneousEvents(t *testing.T) {
	var h eventQueue
	h.Push(event{t: 5, kind: arrival, seq: 3})
	h.Push(event{t: 5, kind: departure, seq: 2})
	h.Push(event{t: 5, kind: fault, seq: 1})
	h.Push(event{t: 5, kind: departure, seq: 0})
	h.Push(event{t: 4, kind: arrival, seq: 4})
	want := []event{
		{t: 4, kind: arrival, seq: 4},
		{t: 5, kind: fault, seq: 1},
		{t: 5, kind: departure, seq: 0},
		{t: 5, kind: departure, seq: 2},
		{t: 5, kind: arrival, seq: 3},
	}
	for i, w := range want {
		if got := h.Pop(); !sameEvent(got, w) {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
}

// TestHeap4PopClearsSlot is the regression test for the event-queue
// memory retention bug: the old container/heap Pop moved the popped event
// to the end of the backing array and re-sliced, leaving the event — and
// through its *Assignment, the departed VM's whole placement record —
// reachable until the slot happened to be overwritten. The new Pop must
// zero every slot it vacates.
func TestHeap4PopClearsSlot(t *testing.T) {
	var h eventQueue
	for i := 0; i < 8; i++ {
		h.Push(event{
			t:    int64(i),
			kind: departure,
			seq:  i,
			vm:   workload.VM{ID: i},
			a:    &sched.Assignment{},
		})
	}
	backing := h.s[:cap(h.s)]
	for h.Len() > 0 {
		h.Pop()
	}
	for i, e := range backing {
		if !isZeroEvent(e) {
			t.Fatalf("backing slot %d still holds %+v after pop (assignment retained: %v)",
				i, e, e.a != nil)
		}
	}
}

// TestHeap4PushPopDoesNotAllocate asserts the non-boxing contract: at
// steady state (capacity already grown) a push/pop cycle performs zero
// heap allocations, where the container/heap API boxed every pushed event.
func TestHeap4PushPopDoesNotAllocate(t *testing.T) {
	var h eventQueue
	for i := 0; i < 64; i++ {
		h.Push(event{t: int64(i), seq: i})
	}
	i := 1000
	avg := testing.AllocsPerRun(100, func() {
		h.Push(event{t: int64(i), seq: i})
		i++
		h.Pop()
	})
	if avg != 0 {
		t.Fatalf("push/pop allocates %.2f times per cycle at steady state, want 0", avg)
	}
}
