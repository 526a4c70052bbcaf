package sched

import (
	"reflect"
	"testing"

	"risa/internal/network"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// fabricFree reads every aggregate the fabric keeps, for before/after
// comparison.
func fabricFree(st *State) []units.Bandwidth {
	f := st.Fabric
	out := []units.Bandwidth{f.IntraRackFree(), f.InterRackFree(), f.InterPodFree()}
	for r := 0; r < st.Cluster.NumRacks(); r++ {
		out = append(out, f.RackIntraFree(r))
	}
	return out
}

// holdings copies what a record holds: per circuit its bandwidth and
// links, per resource its brick shares.
type holdings struct {
	bw     [2]units.Bandwidth
	links  [2][]*network.Link
	shares [units.NumResources][]topology.BrickShare
}

func holdingsOf(a *Assignment) holdings {
	var h holdings
	for i, fl := range []*network.Flow{a.CPURAMFlow, a.RAMSTOFlow} {
		if fl != nil {
			h.bw[i] = fl.BW()
			h.links[i] = append([]*network.Link(nil), fl.Links()...)
		}
	}
	for _, r := range units.Resources() {
		h.shares[r] = append([]topology.BrickShare(nil), placementOf(a, r).Shares...)
	}
	return h
}

func ownsFlows(a *Assignment) bool {
	return a.CPURAMFlow == &a.flows[0] && a.RAMSTOFlow == &a.flows[1]
}

// TestAssignmentOwnsItsFlows pins the one-record design: a placed VM's
// two circuits live inside its Assignment, and releasing it gives every
// link's bandwidth back.
func TestAssignmentOwnsItsFlows(t *testing.T) {
	st := testState(t)
	pristine := fabricFree(st)
	vm := workload.VM{ID: 1, Lifetime: 1, Req: units.Vec(8, 16, 128)}
	// Place across racks so the CPU–RAM circuit takes the longer path.
	far := testTriple(st)
	far[units.RAM] = st.Cluster.Rack(1).BoxesOf(units.RAM)[0]
	a, err := st.AllocateVM(vm, far, network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if !ownsFlows(a) {
		t.Fatal("AllocateVM left a flow pointer outside the assignment")
	}
	if n := len(a.CPURAMFlow.Links()); n != 4 {
		t.Fatalf("inter-rack circuit has %d links, want 4", n)
	}

	st.ReleaseVM(a)
	if err := st.Fabric.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := fabricFree(st); !reflect.DeepEqual(got, pristine) {
		t.Fatalf("fabric aggregates after releasing everything:\n got %v\nwant %v", got, pristine)
	}
}

// TestPreemptRestoreIntoSameRecord: Hold and ReleaseVMKeep empty a
// victim's record and Replay puts its shares and circuits back, link for
// link, into the record's own buffers and slots.
func TestPreemptRestoreIntoSameRecord(t *testing.T) {
	st := testState(t)
	boxes := testTriple(st)
	boxes[units.Storage] = st.Cluster.Rack(2).BoxesOf(units.Storage)[0]
	a, err := st.AllocateVM(workload.VM{ID: 1, Lifetime: 1, Tier: 2, Req: units.Vec(8, 16, 128)}, boxes, network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	want, held := holdingsOf(a), fabricFree(st)
	bufs := [units.NumResources]*topology.BrickShare{&a.CPU.Shares[0], &a.RAM.Shares[0], &a.STO.Shares[0]}

	var h AssignmentState
	st.Hold(a, &h)
	st.ReleaseVMKeep(a)
	if a.CPURAMFlow != nil || a.RAMSTOFlow != nil || st.Fabric.IntraRackFree() != st.Fabric.IntraRackCapacity() {
		t.Fatal("ReleaseVMKeep left a circuit reserved")
	}
	if got, err := st.Replay(a, &h); err != nil || got != a {
		t.Fatalf("Replay into the held record: %p, %v", got, err)
	}
	if !ownsFlows(a) {
		t.Fatal("Replay put a circuit outside the victim's record")
	}
	for _, r := range units.Resources() {
		if &placementOf(a, r).Shares[0] != bufs[r] {
			t.Errorf("%v shares replayed outside the record's own buffer", r)
		}
	}
	if got := holdingsOf(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed holdings differ:\n got %+v\nwant %+v", got, want)
	}
	if got := fabricFree(st); !reflect.DeepEqual(got, held) {
		t.Fatalf("fabric aggregates after restore:\n got %v\nwant %v", got, held)
	}

	// A replay refused at its last step — the RAM–storage circuit's last
	// link full — takes back the shares and the circuit it had already
	// re-carved, and leaves the kept record empty.
	st.Hold(a, &h)
	st.ReleaseVMKeep(a)
	lastRef := h.RAMSTO.Links[len(h.RAMSTO.Links)-1]
	l, err := st.Fabric.LinkByRef(lastRef)
	if err != nil {
		t.Fatal(err)
	}
	var filler network.Flow
	if err := st.Fabric.Replay(&filler, l.Free(), []network.LinkRef{lastRef}, false, false); err != nil {
		t.Fatal(err)
	}
	released, cpuFree := fabricFree(st), st.Cluster.TotalFree(units.CPU)
	if _, err := st.Replay(a, &h); err == nil {
		t.Fatal("Replay onto a full link succeeded")
	}
	if !a.CPU.IsZero() || a.CPURAMFlow != nil || a.RAMSTOFlow != nil {
		t.Fatal("a refused Replay left holdings on the kept record")
	}
	if got := fabricFree(st); !reflect.DeepEqual(got, released) || st.Cluster.TotalFree(units.CPU) != cpuFree {
		t.Fatalf("a refused Replay kept capacity:\n got %v\nwant %v", got, released)
	}
	st.Fabric.Unreserve(&filler)
	st.ReleaseVM(a)
	if err := st.Fabric.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocatedAssignmentsIsHighWaterMark: the leak counter counts records
// in use, not the slabs they come from. A refill moves it by the one record
// drawn, an identical replay leaves it alone, and a single leaked record —
// far less than a slab — shows.
func TestAllocatedAssignmentsIsHighWaterMark(t *testing.T) {
	st := testState(t)
	vm := workload.VM{ID: 1, Lifetime: 1, Req: units.Vec(1, 1, 1)}
	const resident = assignmentSlab + 1 // forces a second slab
	replay := func() {
		t.Helper()
		var live []*Assignment
		for i := 0; i < resident; i++ {
			a, err := st.AllocateVM(vm, testTriple(st), network.FirstFit)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, a)
		}
		for _, a := range live {
			st.ReleaseVM(a)
		}
	}
	first, err := st.AllocateVM(vm, testTriple(st), network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.AllocatedAssignments(); got != 1 {
		t.Fatalf("one record in use out of a fresh slab reads %d, want 1", got)
	}
	st.ReleaseVM(first)
	replay()
	if got := st.AllocatedAssignments(); got != resident {
		t.Fatalf("high-water mark %d after %d residents across two slabs", got, resident)
	}
	replay()
	if got := st.AllocatedAssignments(); got != resident {
		t.Fatalf("identical replay moved the high-water mark to %d, want %d", got, resident)
	}
	leaked, err := st.AllocateVM(vm, testTriple(st), network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	st.ReleaseVMKeep(leaked) // resources back, record never pooled
	replay()
	if got := st.AllocatedAssignments(); got != resident+1 {
		t.Fatalf("one leaked record reads %d, want %d", got, resident+1)
	}
}

// TestSlabShareBuffersDoNotOverlap: the share buffers carved from a slab
// are capped, so a placement that outgrows its buffer moves out instead of
// running into the next buffer — its own record's or a neighbour's.
func TestSlabShareBuffersDoNotOverlap(t *testing.T) {
	st := testState(t)
	boxes := testTriple(st)
	brick := st.Cluster.Config().BrickCapacity(units.CPU)
	vms := []workload.VM{
		{ID: 1, Lifetime: 1, Req: units.Vec(3*brick, 5, 7)}, // three CPU shares: outgrows shareBufCap
		{ID: 2, Lifetime: 1, Req: units.Vec(9, 11, 13)},
	}
	var live []*Assignment
	for _, vm := range vms {
		a, err := st.AllocateVM(vm, boxes, network.FirstFit)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, a)
	}
	if n := len(live[0].CPU.Shares); n != 3 {
		t.Fatalf("three-brick placement has %d shares", n)
	}
	for _, a := range live {
		for _, r := range units.Resources() {
			var sum units.Amount
			for _, sh := range placementOf(a, r).Shares {
				sum += sh.Amount
			}
			if sum != a.VM.Req[r] {
				t.Errorf("VM %d %v shares sum to %d, want %d: a buffer was overwritten", a.VM.ID, r, sum, a.VM.Req[r])
			}
		}
	}
	for _, a := range live {
		st.ReleaseVM(a)
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
