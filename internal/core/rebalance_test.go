package core

import (
	"reflect"
	"testing"

	"risa/internal/baseline"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// interRackAssignment builds a 2-rack cluster with an assignment forced
// across racks: RAM in rack 0, CPU and storage in rack 1. With
// busyUplink, uplink #0 of both of rack 1's CPU boxes is full while the VM
// is placed (one filler circuit between them, released afterwards), so
// its CPU–RAM circuit leaves its box on uplink #1 although #0 is free
// again.
func interRackAssignment(t *testing.T, busyUplink bool) (*sched.State, *sched.Assignment) {
	t.Helper()
	st := toyState(t)
	var filler *network.Flow
	if busyUplink {
		cpus := st.Cluster.Rack(1).BoxesOf(units.CPU)
		var err error
		if filler, err = st.Fabric.AllocateFlow(cpus[0], cpus[1], st.Fabric.Config().LinkCapacity, network.FirstFit); err != nil {
			t.Fatal(err)
		}
	}
	// Exhaust rack 1's RAM so NULB splits the VM (toy example 1 shape).
	nulb := baseline.NewNULB(st)
	vm := workload.VM{ID: 0, Lifetime: 100, Req: units.Vec(8, 16, 128)}
	a, err := nulb.Schedule(vm)
	if err != nil {
		t.Fatal(err)
	}
	if !a.InterRack() {
		t.Fatal("setup should produce an inter-rack assignment")
	}
	st.Fabric.ReleaseFlow(filler)
	want := 0
	if busyUplink {
		want = 1
	}
	if got := a.CPURAMFlow.Links()[0].Index(); got != want {
		t.Fatalf("CPU–RAM circuit leaves its box on uplink #%d, want #%d", got, want)
	}
	return st, a
}

// heldBy reads what a record holds straight off it: both circuits' link
// addresses and all three share slices.
func heldBy(st *sched.State, a *sched.Assignment) (links [2][]network.LinkRef, shares [3][]topology.BrickShare) {
	for i, fl := range [...]*network.Flow{a.CPURAMFlow, a.RAMSTOFlow} {
		for _, l := range fl.Links() {
			links[i] = append(links[i], st.Fabric.Ref(l))
		}
	}
	for i, p := range [...]topology.Placement{a.CPU, a.RAM, a.STO} {
		shares[i] = append([]topology.BrickShare(nil), p.Shares...)
	}
	return links, shares
}

func TestRebalanceMigratesInterRackVM(t *testing.T) {
	st, a := interRackAssignment(t, false)
	r := New(st)
	moved := Rebalance(r, []*sched.Assignment{a})
	if moved != 1 {
		t.Fatalf("migrated %d, want 1", moved)
	}
	if a.InterRack() {
		t.Error("assignment should now be intra-rack")
	}
	if a.CPURAMLatency() != sched.IntraRackCPURAMLatency {
		t.Error("latency should drop to the floor")
	}
	// All resources still held, nothing leaked.
	if a.CPU.Total != 8 || a.RAM.Total != 16 || a.STO.Total != 128 {
		t.Errorf("migrated placement wrong: %d/%d/%d", a.CPU.Total, a.RAM.Total, a.STO.Total)
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := st.Fabric.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// The migrated VM can be released normally.
	st.ReleaseVM(a)
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRebalanceSkipsIntraRackVMs(t *testing.T) {
	st := defaultState(t)
	r := New(st)
	var as []*sched.Assignment
	for i := 0; i < 5; i++ {
		a, err := r.Schedule(typicalVM(i))
		if err != nil {
			t.Fatal(err)
		}
		as = append(as, a)
	}
	if moved := Rebalance(r, as); moved != 0 {
		t.Errorf("intra-rack VMs migrated: %d", moved)
	}
}

func TestRebalanceRestoresWhenNoRackFits(t *testing.T) {
	// The inter-rack VM stays inter-rack when still no single rack can
	// host it; the original placement must be restored exactly — boxes,
	// brick shares and the uplinks of both circuits, including an uplink
	// a fresh first-fit reservation would no longer pick.
	for _, busyUplink := range []bool{false, true} {
		st, a := interRackAssignment(t, busyUplink)
		// Shrink rack 1's RAM below the request (max 15 GB in one box) so
		// migration is impossible: rack 0 has no CPU, rack 1 not enough RAM.
		if _, err := st.Cluster.Preoccupy(1, 0, units.RAM, 17); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Cluster.Preoccupy(1, 1, units.RAM, 16); err != nil {
			t.Fatal(err)
		}
		r := New(st)
		cpuBox, ramBox := a.CPU.Box, a.RAM.Box
		links, shares := heldBy(st, a)
		if moved := Rebalance(r, []*sched.Assignment{a}); moved != 0 {
			t.Fatalf("busyUplink=%v: migration should be impossible", busyUplink)
		}
		if a.CPU.Box != cpuBox || a.RAM.Box != ramBox {
			t.Errorf("busyUplink=%v: failed migration must restore the original boxes", busyUplink)
		}
		if gotLinks, gotShares := heldBy(st, a); !reflect.DeepEqual(gotLinks, links) || !reflect.DeepEqual(gotShares, shares) {
			t.Errorf("busyUplink=%v: failed migration moved the VM's holdings:\n got %v %v\nwant %v %v",
				busyUplink, gotLinks, gotShares, links, shares)
		}
		if !a.InterRack() {
			t.Error("assignment should remain inter-rack")
		}
		if err := st.Cluster.CheckInvariants(); err != nil {
			t.Error(err)
		}
		if err := st.Fabric.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

func TestRebalanceHandlesNilEntries(t *testing.T) {
	st := defaultState(t)
	r := New(st)
	if moved := Rebalance(r, []*sched.Assignment{nil, nil}); moved != 0 {
		t.Error("nil assignments should be skipped")
	}
}

func TestDisplaceMovesVMOffFailedBox(t *testing.T) {
	st := defaultState(t)
	r := New(st)
	a, err := r.Schedule(typicalVM(0))
	if err != nil {
		t.Fatal(err)
	}
	failed := a.CPU.Box
	for _, b := range st.Cluster.Rack(failed.Rack()).Boxes() {
		st.Cluster.SetBoxFailed(b, true)
	}
	if !a.OnFailedHardware() {
		t.Fatal("assignment should sit on failed hardware")
	}
	if !Displace(st, r, a) {
		t.Fatal("a near-empty cluster must re-place the displaced VM")
	}
	if a.OnFailedHardware() {
		t.Error("displaced VM still on failed hardware")
	}
	if a.CPU.Box.Rack() == failed.Rack() {
		t.Error("displaced VM re-placed into the failed rack")
	}
	if a.VM.ID != 0 || a.CPU.Total != 8 || a.RAM.Total != 16 || a.STO.Total != 128 {
		t.Errorf("displaced record corrupted: VM %d, %d/%d/%d",
			a.VM.ID, a.CPU.Total, a.RAM.Total, a.STO.Total)
	}
	// The caller-held record remains releasable like any other.
	st.ReleaseVM(a)
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := st.Fabric.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDisplaceFailureReleasesAndReportsLost(t *testing.T) {
	st := defaultState(t)
	r := New(st)
	a, err := r.Schedule(typicalVM(0))
	if err != nil {
		t.Fatal(err)
	}
	// Fail every box in the cluster: no re-placement can exist.
	for _, b := range st.Cluster.Boxes() {
		st.Cluster.SetBoxFailed(b, true)
	}
	if Displace(st, r, a) {
		t.Fatal("re-placement into an all-failed cluster must fail")
	}
	// The record's holdings were released (into failed boxes, so the
	// capacity surfaces at repair) and the shell is safe to pool.
	if !a.CPU.IsZero() || !a.RAM.IsZero() || !a.STO.IsZero() || a.CPURAMFlow != nil {
		t.Error("failed displace left holdings on the record")
	}
	st.ReleaseVM(a)
	for _, b := range st.Cluster.Boxes() {
		st.Cluster.SetBoxFailed(b, false)
	}
	// Everything must be pristine after repair.
	for _, k := range units.Resources() {
		if st.Cluster.TotalFree(k) != st.Cluster.TotalCapacity(k) {
			t.Errorf("%v not pristine after repair", k)
		}
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := st.Fabric.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRebalanceManyVMs(t *testing.T) {
	// Fill a cluster with NULB under rack-0 CPU pressure to create many
	// inter-rack placements, then rebalance with RISA and verify every
	// migration reduced the inter-rack count monotonically.
	st := defaultState(t)
	for _, b := range st.Cluster.Rack(0).BoxesOf(units.CPU) {
		if _, err := st.Cluster.Allocate(b, b.Free()-4); err != nil {
			t.Fatal(err)
		}
	}
	nulb := baseline.NewNULB(st)
	var as []*sched.Assignment
	inter := 0
	for i := 0; i < 200; i++ {
		a, err := nulb.Schedule(workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)})
		if err != nil {
			continue
		}
		as = append(as, a)
		if a.InterRack() {
			inter++
		}
	}
	r := New(st)
	moved := Rebalance(r, as)
	after := 0
	for _, a := range as {
		if a.InterRack() {
			after++
		}
	}
	if after != inter-moved {
		t.Errorf("inter-rack count %d -> %d with %d migrations", inter, after, moved)
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := st.Fabric.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
