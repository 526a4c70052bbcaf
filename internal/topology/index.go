package topology

import "risa/internal/units"

// kindIndex is the incremental free-capacity index a rack keeps for one
// resource kind. It caches the two aggregates every scheduler's hot path
// asks for — the rack's total free amount and the largest single-box free
// amount — so MaxFree, FitsWholeVM and Free are O(1) instead of scanning
// every box on every call.
//
// Maintenance is O(1) per mutation: increases (release, restore) can only
// raise the maximum, which is checked directly; decreases (allocate, fail)
// can only invalidate the maximum when they hit the current best box, in
// which case the index goes dirty and the next read pays one scan of the
// rack's same-kind boxes. The cached best box is always the earliest box
// attaining the maximum, exactly what a brute-force scan in index order
// returns, so the index is observationally identical to the pre-index
// code (index_test.go asserts this under random alloc/release/failure
// sequences).
type kindIndex struct {
	total units.Amount // sum of Free() over the rack's boxes of the kind
	max   units.Amount // largest Free() among those boxes (while !dirty)
	best  *Box         // earliest box attaining max; nil when max is 0
	dirty bool         // max/best must be recomputed on next read
}

// rescan rebuilds max/best from a brute-force scan in box-index order.
// The scan reads the rack's visible-free vector (vis[i] == boxes[i].Free()
// by the structure-of-arrays invariant) so it walks one contiguous amount
// slice instead of chasing the box pointers; the earliest strictly-greater
// argmax is the same either way.
func (ix *kindIndex) rescan(boxes []*Box, vis []units.Amount) {
	ix.max, ix.best = 0, nil
	for i, f := range vis {
		if f > ix.max {
			ix.max, ix.best = f, boxes[i]
		}
	}
	ix.dirty = false
}

// initIndex seeds every kind's index from the rack's freshly built boxes.
func (r *Rack) initIndex() {
	for _, k := range units.Resources() {
		ix := &r.idx[k]
		ix.total = 0
		for _, b := range r.byKind[k] {
			ix.total += b.Free()
		}
		ix.rescan(r.byKind[k], r.vis[k])
	}
}

// noteIncrease records that b's visible free amount grew by delta (release
// into a healthy box, or a failed box being restored). b.Free() must
// already reflect the change.
func (r *Rack) noteIncrease(b *Box, delta units.Amount) {
	ix := &r.idx[b.kind]
	ix.total += delta
	if ix.dirty {
		return
	}
	f := b.Free()
	if f > ix.max || (f == ix.max && ix.best != nil && b.kindIx < ix.best.kindIx) {
		ix.max, ix.best = f, b
	}
}

// noteDecrease records that b's visible free amount shrank by delta
// (allocation, or the box failing). Only a shrink of the current best box
// can lower the maximum, so only that case marks the index dirty.
func (r *Rack) noteDecrease(b *Box, delta units.Amount) {
	ix := &r.idx[b.kind]
	ix.total -= delta
	if b == ix.best {
		ix.dirty = true
	}
}
