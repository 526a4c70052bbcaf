package sched

import "risa/internal/units"

// Scratch is a reusable per-owner decision workspace: the state a
// scheduler or the event core keeps between decisions that is neither
// cluster state nor part of an Assignment. It holds two things — RISA's
// per-rack next-fit box cursors, stored densely by rack index, and the
// pooled victim-selection buffers of the preemption transaction — so the
// steady-state decision path touches no allocator once they have reached
// their high-water size.
//
// Ownership discipline (DESIGN.md §9): a Scratch belongs to exactly one
// owner, and nothing it hands out may be shared with another. Anything
// that outlives a decision and belongs to a VM (the Assignment, its
// placements, its flows) lives in the State's pool instead, whose
// lifetime matches the VM's. Schedulers are not safe for concurrent use
// and neither is their Scratch.
type Scratch struct {
	cursors [][units.NumResources]int
	preempt PreemptScratch
}

// Preemption returns the scratch's pooled victim-selection workspace for
// the preemption transaction (see PreemptScratch). The same ownership
// rules apply: one driver, no concurrent use.
func (s *Scratch) Preemption() *PreemptScratch { return &s.preempt }

// Cursors returns the per-resource packing cursors of rack i, creating
// dense storage up to that rack on first use. The cursors persist across
// decisions — they are next-fit state, not per-decision scratch — but live
// here because they share the Scratch's lifetime and single-owner rule.
func (s *Scratch) Cursors(i int) *[units.NumResources]int {
	for len(s.cursors) <= i {
		// Grow to the high-water rack index; append doubles capacity so
		// this settles after the first pass over the cluster.
		s.cursors = append(s.cursors, [units.NumResources]int{})
	}
	return &s.cursors[i]
}
