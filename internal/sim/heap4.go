package sim

// eventQueue is the event core's pending-event queue: a 4-ary min-heap of
// events ordered by event.Less. It replaces container/heap, whose
// heap.Interface API boxes every element through interface{} — one
// allocation per Push, which on the steady-state churn path was one
// allocation per scheduled VM. This heap moves concrete values and never
// touches the allocator beyond the amortized growth of the backing slice.
//
// A 4-ary layout (children of i at 4i+1..4i+4) halves the tree depth of
// the binary heap for more comparisons per level. An entry is 40 bytes
// (pinned by TestEventSize), so a node's four children are 160 contiguous
// bytes — three cache lines, four when the group straddles one — and a
// sift reads only their ordering keys. Both sifts carry the moving entry
// beside a hole and write each level once, where a swap would copy three
// entries per level: the queue's cost is entry bytes moved, and the
// simulator's loop pops once per departure.
//
// The backing array's order is load-bearing, not just the pop order:
// snapshots persist it verbatim (eventCore.capture/restore) and the eviction
// and preemption scans walk it. A hole sift leaves exactly the array the
// swap sift leaves — TestHeap4MatchesSwapSift keeps the swap code as the
// oracle — and the total order (time, kind, sequence) is that of the old
// container/heap code, so the sequence of popped events is bit-identical.
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

// Min returns the minimum event in place, valid until the next Push or
// Pop. It must not be called on an empty heap.
func (h *eventQueue) Min() *event { return &h.s[0] }

// Push adds e to the heap.
func (h *eventQueue) Push(e event) {
	h.s = append(h.s, e)
	s := h.s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.Less(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
}

// Pop removes and returns the minimum event, zeroing the slot it
// vacates so the backing array retains nothing.
func (h *eventQueue) Pop() event {
	n := len(h.s) - 1
	s := h.s[:n]
	top, moving := h.s[0], h.s[n]
	h.s[n] = event{} // do not retain the moved element in the dead slot
	h.s = s
	if n == 0 {
		return top
	}

	// Sift the hole at the root down to where the old last element goes.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		smallest := first
		last := min(first+4, n)
		for c := first + 1; c < last; c++ {
			if s[c].Less(&s[smallest]) {
				smallest = c
			}
		}
		if !s[smallest].Less(&moving) {
			break
		}
		s[i] = s[smallest]
		i = smallest
	}
	s[i] = moving
	return top
}
