package sim

import (
	"testing"

	"risa/internal/units"
	"risa/internal/workload"
)

// TestAdmitKeepsArrivalOrder pins the retry queue's insertion: an entry
// whose admission sequence is out of order inserts mid-queue, not at the
// end, and ties keep append order so in-order admissions stay a pure
// append.
func TestAdmitKeepsArrivalOrder(t *testing.T) {
	sr := &eventCore{}
	vm := func(id int) workload.VM { return workload.VM{ID: id} }
	for _, q := range []QueuedVMState{
		{VM: vm(0), Seq: 1},
		{VM: vm(1), Seq: 4},
		{VM: vm(2), Seq: 2}, // out of order: belongs between 1 and 4
		{VM: vm(3), Seq: 4}, // tie: stays after the existing seq-4 entry
		{VM: vm(4), Seq: 7},
	} {
		sr.insert(q)
	}
	want := []int{0, 2, 1, 3, 4}
	for i, q := range sr.waiting {
		if q.VM.ID != want[i] {
			ids := make([]int, len(sr.waiting))
			for j, w := range sr.waiting {
				ids[j] = w.VM.ID
			}
			t.Fatalf("queue order %v, want %v", ids, want)
		}
	}
	// A consumed head (wHead > 0) must not be disturbed by a later
	// low-seq admit: insertion stops at the head boundary.
	sr.wHead = 2
	sr.insert(QueuedVMState{VM: vm(5), Seq: 0})
	if sr.waiting[2].VM.ID != 5 {
		t.Errorf("low-seq admit landed at %d, want the wHead boundary", sr.waiting[2].VM.ID)
	}
	if sr.waiting[0].VM.ID != 0 || sr.waiting[1].VM.ID != 2 {
		t.Error("admit disturbed the consumed prefix")
	}
}

// TestAdmitKeepsArrivalOrderPerTier pins the tier-ordered retry queue:
// priority tier orders before admission sequence (tier 0 drains first
// regardless of when it queued), while equal-tier entries keep the
// original arrival-sequence discipline — so an all-tier-0 workload
// orders exactly as the untiered queue did.
func TestAdmitKeepsArrivalOrderPerTier(t *testing.T) {
	sr := &eventCore{}
	vm := func(id, tier int) workload.VM { return workload.VM{ID: id, Tier: tier} }
	for _, q := range []QueuedVMState{
		{VM: vm(0, 2), Seq: 1},
		{VM: vm(1, 0), Seq: 5}, // higher tier, later seq: drains first anyway
		{VM: vm(2, 1), Seq: 3},
		{VM: vm(3, 0), Seq: 2}, // tier 0, earlier seq: ahead of the other tier-0
		{VM: vm(4, 2), Seq: 0}, // tier 2, earliest seq: ahead of the first tier-2
		{VM: vm(5, 1), Seq: 9},
	} {
		sr.insert(q)
	}
	want := []int{3, 1, 2, 5, 4, 0}
	for i, q := range sr.waiting {
		if q.VM.ID != want[i] {
			ids := make([]int, len(sr.waiting))
			for j, w := range sr.waiting {
				ids[j] = w.VM.ID
			}
			t.Fatalf("queue order %v, want %v", ids, want)
		}
	}
	// The consumed prefix stays untouched even for a tier-0 admit that
	// would otherwise sort to the very front.
	sr.wHead = 2
	sr.insert(QueuedVMState{VM: vm(6, 0), Seq: 0})
	if sr.waiting[2].VM.ID != 6 {
		t.Errorf("tier-0 admit landed at %d, want the wHead boundary", sr.waiting[2].VM.ID)
	}
	if sr.waiting[0].VM.ID != 3 || sr.waiting[1].VM.ID != 1 {
		t.Error("admit disturbed the consumed prefix")
	}
}

// TestTierTwoDrainsAfterPressure is the starvation guard on the
// tier-ordered queue: tier-2 entries queued behind a wall of tier-0
// residents must all place once the pressure departs — lowest priority
// means drained last, never never.
func TestTierTwoDrainsAfterPressure(t *testing.T) {
	tr := &workload.Trace{Name: "tiered-pressure"}
	id := 0
	// 96 × 64 CPU units fill the 6-rack fixture's 6144 exactly.
	for i := 0; i < 96; i++ {
		tr.VMs = append(tr.VMs, workload.VM{ID: id, Arrival: int64(i), Lifetime: 1000, Tier: 0, Req: units.Vec(64, 64, 32)})
		id++
	}
	// Tier-2 arrivals against the full cluster: nothing to preempt below
	// them, so they queue and wait.
	for i := 0; i < 20; i++ {
		tr.VMs = append(tr.VMs, workload.VM{ID: id, Arrival: int64(100 + i), Lifetime: 1000, Tier: 2, Req: units.Vec(64, 64, 32)})
		id++
	}
	// A late sentinel arrival keeps the event loop running past the
	// tier-0 wall's departures (a finite trace otherwise ends the run at
	// its last arrival, stranding the queue).
	tr.VMs = append(tr.VMs, workload.VM{ID: id, Arrival: 2500, Lifetime: 100, Tier: 2, Req: units.Vec(1, 1, 32)})
	_, r := eqRunner(t, "RISA", Config{Faults: Faults{Retry: true, Preempt: true}})
	cfg := StreamConfig{Workload: StreamWorkload{Duration: 3000}, Windows: StreamWindows{Window: 500}}
	ss, err := r.RunStream(workload.NewTraceStream(tr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Enqueued < 20 {
		t.Fatalf("fixture queued only %d arrivals, want at least the 20 tier-2", ss.Enqueued)
	}
	if ss.Preempted != 0 {
		t.Errorf("tier-2 arrivals preempted %d victims; nothing sits below tier 2", ss.Preempted)
	}
	// No warm-up: the measured counters cover the whole run.
	if got := ss.Tiers[2].Accepted; got != 21 {
		t.Errorf("tier-2 accepted %d of 21 after the tier-0 wall departed", got)
	}
	if got := ss.Tiers[0].Accepted; got != 96 {
		t.Errorf("tier-0 accepted %d of 96", got)
	}
}
