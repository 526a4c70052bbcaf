package sim

// eventQueue is the event core's pending-event queue: a 4-ary min-heap of
// events ordered by event.Less. It replaces container/heap, whose
// heap.Interface API boxes every element through interface{} — one
// allocation per Push, which on the steady-state churn path was one
// allocation per scheduled VM. This heap moves concrete values and never
// touches the allocator beyond the amortized growth of the backing slice.
//
// A 4-ary layout (children of i at 4i+1..4i+4) halves the tree depth of
// the binary heap: sift-down does more comparisons per level but those hit
// one cache line, which is the better trade for the simulator's
// pop-heavy loop. The heap property and the total event order (time, kind,
// sequence — see event.Less) are exactly those of the old container/heap
// code, so the sequence of popped events is bit-identical.
//
// Pop zeroes the vacated slot so popped elements do not linger in the
// backing array: the old eventHeap.Pop left the last element (and through
// it the departed VM's *Assignment) reachable until the slot was
// overwritten, pinning arbitrarily old placements past their release (see
// TestHeap4PopClearsSlot).
type eventQueue struct {
	s []event
}

// Len returns the number of queued events.
func (h *eventQueue) Len() int { return len(h.s) }

// Min returns the minimum event without removing it. It must not be
// called on an empty heap.
func (h *eventQueue) Min() event { return h.s[0] }

// Push adds e to the heap.
func (h *eventQueue) Push(e event) {
	h.s = append(h.s, e)
	i := len(h.s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.s[i].Less(h.s[parent]) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

// Pop removes and returns the minimum event, zeroing the slot it
// vacates so the backing array retains nothing.
func (h *eventQueue) Pop() event {
	n := len(h.s) - 1
	min := h.s[0]
	h.s[0] = h.s[n]
	h.s[n] = event{} // do not retain the moved element in the dead slot
	h.s = h.s[:n]

	// Sift the relocated root down to its place.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		smallest := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.s[c].Less(h.s[smallest]) {
				smallest = c
			}
		}
		if !h.s[smallest].Less(h.s[i]) {
			break
		}
		h.s[i], h.s[smallest] = h.s[smallest], h.s[i]
		i = smallest
	}
	return min
}
