package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"risa/internal/sched"
	"risa/internal/workload"
)

// TestEventSize pins the heap entry's size. Every sift level copies one
// entry and every Pop copies two, so the queue's cost is entry bytes
// moved: at 96 bytes (a workload.VM by value that duplicated
// Assignment.VM, and word-sized kind and plan index) Pop was a fifth of
// the churn loop, most of it runtime.duffcopy. A field added here is paid
// on every event of every run; park it behind e.a or e.ghost instead.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 40 {
		t.Fatalf("event is %d bytes, want <= 40", got)
	}
}

// swapQueue is the swap-based sift the hole-based eventQueue replaced,
// kept as the oracle for the backing array's order: each level exchanges
// parent and child where the hole sift writes the level once.
type swapQueue struct{ s []event }

func (h *swapQueue) Push(e event) {
	h.s = append(h.s, e)
	i := len(h.s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.s[i].Less(&h.s[parent]) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

func (h *swapQueue) Pop() event {
	n := len(h.s) - 1
	top := h.s[0]
	h.s[0] = h.s[n]
	h.s[n] = event{}
	h.s = h.s[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		smallest := first
		for c := first + 1; c < min(first+4, n); c++ {
			if h.s[c].Less(&h.s[smallest]) {
				smallest = c
			}
		}
		if !h.s[smallest].Less(&h.s[i]) {
			break
		}
		h.s[i], h.s[smallest] = h.s[smallest], h.s[i]
		i = smallest
	}
	return top
}

// TestHeap4MatchesSwapSift drives the queue and the swap-sift oracle with
// the same seeded push/pop sequences, heavy with (t, kind) ties, and
// requires identical backing arrays after every operation. The pop order
// alone is not the contract: snapshots persist the array verbatim and the
// eviction and preemption scans walk it, so a sift that left the same
// heap in another arrangement would change placements.
func TestHeap4MatchesSwapSift(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h eventQueue
		var ref swapQueue
		for step := 0; step < 3000; step++ {
			// Grow for the first third, hover, then shrink to empty.
			if h.Len() == 0 || rng.Intn(6) < 4-step/1000 {
				e := event{t: int64(rng.Intn(8)), kind: eventKind(1 + rng.Intn(2)), seq: step}
				if e.kind == departure && rng.Intn(4) == 0 {
					e.ghost = &workload.VM{ID: step}
				}
				h.Push(e)
				ref.Push(e)
			} else if got, want := h.Pop(), ref.Pop(); got != want {
				t.Fatalf("seed %d step %d: popped %+v, oracle %+v", seed, step, got, want)
			}
			if !slices.Equal(h.s, ref.s) {
				t.Fatalf("seed %d step %d: backing array diverged from the swap sift:\n got %+v\nwant %+v", seed, step, h.s, ref.s)
			}
		}
	}
}

// refHeap is a minimal container/heap implementation over events — the
// code the 4-ary heap replaced — kept as the test oracle.
type refHeap []event

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].Less(&h[j]) }
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
			if got != want {
				t.Fatalf("trial %d step %d: popped %+v, oracle %+v", trial, step, got, want)
			}
		}
		for h.Len() > 0 {
			got := h.Pop()
			want := heap.Pop(&ref).(event)
			if got != want {
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
		if got := h.Pop(); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
}

// TestHeap4PopClearsSlot is the regression test for the event-queue
// memory retention bug: the old container/heap Pop moved the popped event
// to the end of the backing array and re-sliced, leaving the event — and
// through its *Assignment, the departed VM's whole placement record —
// reachable until the slot happened to be overwritten. The new Pop must
// zero every slot it vacates — a ghost's slot too, whose VM lives off the
// entry behind e.ghost.
func TestHeap4PopClearsSlot(t *testing.T) {
	var h eventQueue
	for i := 0; i < 8; i++ {
		e := event{t: int64(i), kind: departure, seq: i, a: &sched.Assignment{}}
		if i%2 == 1 {
			e.a, e.ghost = nil, &workload.VM{ID: i}
		}
		h.Push(e)
	}
	backing := h.s[:cap(h.s)]
	for h.Len() > 0 {
		h.Pop()
	}
	for i, e := range backing {
		if e != (event{}) {
			t.Fatalf("backing slot %d still holds %+v after pop (assignment retained: %v, ghost VM retained: %v)",
				i, e, e.a != nil, e.ghost != nil)
		}
	}
}

// TestHeap4PushPopDoesNotAllocate asserts the non-boxing contract: at
// steady state (capacity already grown) a push/pop cycle performs zero
// heap allocations, where the container/heap API boxed every pushed event.
// The two depths are the departures pending in the repo benchmark's
// churn-18r (~560) and scale-4608r (~229 000) workloads; due times spread
// over [pending/2, 3·pending/2) ahead of a clock that ticks once per round,
// so pushes sift and pops descend the full depth.
func TestHeap4PushPopDoesNotAllocate(t *testing.T) {
	for _, pending := range []int64{560, 229_000} {
		t.Run(fmt.Sprintf("pending=%d", pending), func(t *testing.T) {
			var h eventQueue
			var now int64
			lcg := uint64(1)
			push := func() {
				now++
				lcg = lcg*6364136223846793005 + 1442695040888963407
				h.Push(event{t: now + pending/2 + int64(lcg>>33)%pending, seq: int(now)})
			}
			for int64(h.Len()) < pending {
				push()
			}
			avg := testing.AllocsPerRun(200, func() {
				push()
				h.Pop()
			})
			if avg != 0 {
				t.Fatalf("push/pop allocates %.2f times per cycle at steady state, want 0", avg)
			}
		})
	}
}
