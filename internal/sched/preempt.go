package sched

import (
	"fmt"
	"sort"

	"risa/internal/network"
)

// PreemptScratch is the pooled victim-selection workspace of the
// preemption transaction (core.Preempt). One preemption attempt gathers
// candidate victims, filters and cost-sorts them, then releases a growing
// prefix while recording each victim's exact holdings so a failed attempt
// can restore every victim bit-for-bit. All of that state lives here in
// reusable buffers, so the preempt decision path — like Schedule itself —
// touches no allocator once the buffers reach their high-water size
// (TestAllocsScheduleOnePreempt pins this at 0 allocs/op).
//
// A PreemptScratch follows the Scratch ownership rules: it belongs to one
// driver (the simulator's stream loop), is valid only between Reset and
// the end of the attempt, and is not safe for concurrent use.
type PreemptScratch struct {
	cands []*Assignment
	refs  []int
	costs []int64
	holds []AssignmentState

	sorter victimSorter
}

// Reset empties the scratch for a new preemption attempt, keeping every
// buffer's capacity.
func (p *PreemptScratch) Reset() {
	for i := range p.cands {
		p.cands[i] = nil
	}
	p.cands = p.cands[:0]
	p.refs = p.refs[:0]
	p.costs = p.costs[:0]
	p.holds = p.holds[:0]
}

// Add registers one candidate victim. ref is an opaque caller-side index
// (the simulator passes the victim's event-heap slot) handed back via Ref
// for the consumed prefix after a successful preemption.
func (p *PreemptScratch) Add(a *Assignment, ref int) {
	var cost int64
	for _, amt := range a.VM.Req {
		cost += int64(amt)
	}
	p.cands = append(p.cands, a)
	p.refs = append(p.refs, ref)
	p.costs = append(p.costs, cost)
	if n := len(p.cands); n <= cap(p.holds) {
		p.holds = p.holds[:n] // reuse the slot's pooled buffers
	} else {
		p.holds = append(p.holds, AssignmentState{})
	}
}

// Len returns the current number of candidates.
func (p *PreemptScratch) Len() int { return len(p.cands) }

// Victim returns candidate i (in post-sort order).
func (p *PreemptScratch) Victim(i int) *Assignment { return p.cands[i] }

// Ref returns the caller-side ref of candidate i (in post-sort order).
func (p *PreemptScratch) Ref(i int) int { return p.refs[i] }

// FilterEligible drops every candidate an arrival of the given tier may
// not preempt: victims of an equal or higher priority (tier <= the
// arrival's — tier 0 is highest, so only strictly larger tier numbers are
// preemptible), victims on failed hardware, and victims with a flow over
// a failed link. The tier rule is the TierOrderRespected conformance
// property enforced at the transaction itself, not just at call sites;
// the hardware rules are restore safety — State.Replay rejects failed
// boxes and links, and a victim on failed hardware frees no usable
// capacity anyway (its holdings are pending eviction, not supply).
func (p *PreemptScratch) FilterEligible(tier int) {
	w := 0
	for i, a := range p.cands {
		if a.VM.Tier <= tier || a.OnFailedHardware() ||
			flowOnFailedLink(a.CPURAMFlow) || flowOnFailedLink(a.RAMSTOFlow) {
			continue
		}
		p.cands[w], p.refs[w], p.costs[w] = a, p.refs[i], p.costs[i]
		w++
	}
	for i := w; i < len(p.cands); i++ {
		p.cands[i] = nil
	}
	p.cands = p.cands[:w]
	p.refs = p.refs[:w]
	p.costs = p.costs[:w]
	p.holds = p.holds[:w]
}

// SortByCost orders candidates cheapest-first by freed capacity (the sum
// of the victim's request vector), ties broken by VM id ascending — a
// total order, so victim selection is deterministic.
func (p *PreemptScratch) SortByCost() {
	p.sorter.s = p
	sort.Sort(&p.sorter)
	p.sorter.s = nil
}

// HoldAndRelease holds candidate i's exact holdings (State.Hold) in its
// pooled slot and releases them via ReleaseVMKeep: the capacity joins the
// free pool for the preemptor's next placement attempt while the cleared
// record stays with its owner (the simulator's departure event), ready
// for either Restore or final release.
func (p *PreemptScratch) HoldAndRelease(st *State, i int) {
	st.Hold(p.cands[i], &p.holds[i])
	st.ReleaseVMKeep(p.cands[i])
}

// Restore replays candidate i's held holdings (State.Replay) back into its
// kept record, exactly as they were before HoldAndRelease. Between the
// release and this call nothing else may mutate the state (the preemption
// transaction runs inside one simulator event), so the freed capacity is
// still free and replay cannot fail; an error here is a program bug and
// panics.
func (p *PreemptScratch) Restore(st *State, i int) {
	if _, err := st.Replay(p.cands[i], &p.holds[i]); err != nil {
		panic(fmt.Sprintf("sched: preempt restore: %v", err))
	}
}

// flowOnFailedLink reports whether any link carrying the flow is failed.
func flowOnFailedLink(fl *network.Flow) bool {
	if fl == nil {
		return false
	}
	for _, l := range fl.Links() {
		if l.Failed() {
			return true
		}
	}
	return false
}

// victimSorter is the reusable sort.Interface view SortByCost sorts
// through, keeping cands/refs/costs parallel.
type victimSorter struct {
	s *PreemptScratch
}

// Len implements sort.Interface.
func (v *victimSorter) Len() int { return len(v.s.cands) }

// Less implements sort.Interface: ascending cost, then VM id.
func (v *victimSorter) Less(i, j int) bool {
	if v.s.costs[i] != v.s.costs[j] {
		return v.s.costs[i] < v.s.costs[j]
	}
	return v.s.cands[i].VM.ID < v.s.cands[j].VM.ID
}

// Swap implements sort.Interface.
func (v *victimSorter) Swap(i, j int) {
	s := v.s
	s.cands[i], s.cands[j] = s.cands[j], s.cands[i]
	s.refs[i], s.refs[j] = s.refs[j], s.refs[i]
	s.costs[i], s.costs[j] = s.costs[j], s.costs[i]
}
