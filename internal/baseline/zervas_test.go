package baseline

import (
	"testing"

	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// toyConfig reproduces the paper's Table 3 architecture: 2 racks, 2 boxes
// per resource per rack, boxes of 64 cores / 64 GB RAM / 512 GB storage.
func toyConfig() topology.Config {
	return topology.Config{
		Racks: 2, CPUBoxes: 2, RAMBoxes: 2, STOBoxes: 2,
		BricksPerBox: 4, UnitsPerBrick: 4,
		Units: units.Config{CPUUnitCores: 4, RAMUnitGB: 4, STOUnitGB: 32},
	}
}

// toyState reproduces the exact Table 3 availability:
//
//	CPU:  (r0,b0)=0   (r0,b1)=0   (r1,b0)=64  (r1,b1)=32
//	RAM:  (r0,b0)=0   (r0,b1)=16  (r1,b0)=32  (r1,b1)=16
//	STO:  (r0,b0)=0   (r0,b1)=0   (r1,b0)=256 (r1,b1)=512
func toyState(t testing.TB) *sched.State {
	t.Helper()
	st, err := sched.NewState(toyConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	occupy := func(rack, box int, kind units.Resource, amt units.Amount) {
		t.Helper()
		if amt == 0 {
			return
		}
		if _, err := st.Cluster.Preoccupy(rack, box, kind, amt); err != nil {
			t.Fatal(err)
		}
	}
	occupy(0, 0, units.CPU, 64)
	occupy(0, 1, units.CPU, 64)
	occupy(1, 1, units.CPU, 32)
	occupy(0, 0, units.RAM, 64)
	occupy(0, 1, units.RAM, 48)
	occupy(1, 0, units.RAM, 32)
	occupy(1, 1, units.RAM, 48)
	occupy(0, 0, units.Storage, 512)
	occupy(0, 1, units.Storage, 512)
	occupy(1, 0, units.Storage, 256)
	return st
}

func typicalVM() workload.VM {
	// The paper's "typical VM": 8 cores, 16 GB RAM, 128 GB storage.
	return workload.VM{ID: 0, Lifetime: 100, Req: units.Vec(8, 16, 128)}
}

func defaultState(t testing.TB) *sched.State {
	t.Helper()
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNames(t *testing.T) {
	st := defaultState(t)
	if NewNULB(st).Name() != "NULB" {
		t.Error("NULB name")
	}
	if NewNALB(st).Name() != "NALB" {
		t.Error("NALB name")
	}
}

// Toy example 1 (§4.3.1): on the Table 3 state, NULB must pick CPU/RAM/STO
// box ids (2, 1, 2) — CPU and storage from rack 1 but RAM from rack 0 —
// resulting in an inter-rack assignment.
func TestToyExample1NULB(t *testing.T) {
	st := toyState(t)
	nulb := NewNULB(st)
	a, err := nulb.Schedule(typicalVM())
	if err != nil {
		t.Fatalf("NULB should schedule the toy VM: %v", err)
	}
	// CR: CPU 8/96 ≈ 0.08, RAM 16/64 = 0.25, STO 128/768 ≈ 0.17 → RAM
	// scarcest, first box with 16 GB free is (r0, b1) = global RAM id 1.
	if a.RAM.Box.Rack() != 0 || a.RAM.Box.KindIndex() != 1 {
		t.Errorf("RAM at r%d/k%d, want r0/k1", a.RAM.Box.Rack(), a.RAM.Box.KindIndex())
	}
	// BFS from rack 0 finds no CPU/STO there → rack 1, first boxes.
	if a.CPU.Box.Rack() != 1 || a.CPU.Box.KindIndex() != 0 {
		t.Errorf("CPU at r%d/k%d, want r1/k0", a.CPU.Box.Rack(), a.CPU.Box.KindIndex())
	}
	if a.STO.Box.Rack() != 1 || a.STO.Box.KindIndex() != 0 {
		t.Errorf("STO at r%d/k%d, want r1/k0", a.STO.Box.Rack(), a.STO.Box.KindIndex())
	}
	if !a.InterRack() {
		t.Error("toy example 1 NULB assignment must be inter-rack")
	}
	if a.CPURAMLatency() != sched.InterRackCPURAMLatency {
		t.Error("CPU-RAM latency must be the inter-rack 330ns")
	}
}

// NALB makes the same compute choice on the toy state (all uplinks are
// equally free, so the bandwidth reordering is a no-op).
func TestToyExample1NALB(t *testing.T) {
	st := toyState(t)
	a, err := NewNALB(st).Schedule(typicalVM())
	if err != nil {
		t.Fatal(err)
	}
	if a.RAM.Box.Rack() != 0 || a.CPU.Box.Rack() != 1 || a.STO.Box.Rack() != 1 {
		t.Error("NALB should mirror NULB on a fresh fabric")
	}
	if !a.InterRack() {
		t.Error("NALB toy assignment must be inter-rack")
	}
}

func TestNULBPrefersSameRackByBFS(t *testing.T) {
	st := defaultState(t)
	nulb := NewNULB(st)
	a, err := nulb.Schedule(typicalVM())
	if err != nil {
		t.Fatal(err)
	}
	// Fresh cluster: everything fits in rack 0 → intra-rack.
	if a.InterRack() {
		t.Error("fresh cluster placement should be intra-rack")
	}
	if a.CPU.Box.Rack() != 0 || a.RAM.Box.Rack() != 0 || a.STO.Box.Rack() != 0 {
		t.Error("BFS should stay in the scarce box's rack")
	}
}

func TestNULBGoesInterRackWhenHomeRackExhausted(t *testing.T) {
	st := defaultState(t)
	// Fill rack 0's CPU boxes completely; RAM is scarcest for the typical
	// VM and rack 0's RAM is free, so the scarce box lands in rack 0 and
	// CPU must come from rack 1.
	for _, b := range st.Cluster.Rack(0).BoxesOf(units.CPU) {
		if _, err := st.Cluster.Allocate(b, b.Free()); err != nil {
			t.Fatal(err)
		}
	}
	a, err := NewNULB(st).Schedule(typicalVM())
	if err != nil {
		t.Fatal(err)
	}
	if a.RAM.Box.Rack() != 0 {
		t.Errorf("scarce RAM should be in rack 0, got %d", a.RAM.Box.Rack())
	}
	if a.CPU.Box.Rack() != 1 {
		t.Errorf("CPU should spill to rack 1, got %d", a.CPU.Box.Rack())
	}
	if !a.InterRack() {
		t.Error("assignment must be inter-rack")
	}
}

func TestNULBDropsWhenNoCapacity(t *testing.T) {
	st := toyState(t)
	nulb := NewNULB(st)
	// 48 cores fit nowhere (max box free is 64... it fits); use RAM 33 GB
	// — the largest RAM availability is 32 GB.
	vm := workload.VM{ID: 9, Lifetime: 1, Req: units.Vec(8, 33, 128)}
	if _, err := nulb.Schedule(vm); err == nil {
		t.Error("VM needing 33 GB RAM in one box must drop")
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNULBDropsOnEmptyRequest(t *testing.T) {
	st := defaultState(t)
	vm := workload.VM{ID: 1, Lifetime: 1, Req: units.Vec(0, 0, 0)}
	if _, err := NewNULB(st).Schedule(vm); err == nil {
		t.Error("empty request should drop")
	}
}

func TestNALBSpreadsNetworkLoad(t *testing.T) {
	st := defaultState(t)
	nalb := NewNALB(st)
	// Schedule several VMs; NALB's MaxAvail policy must never load one
	// uplink while an emptier one exists on the same box group.
	for i := 0; i < 10; i++ {
		vm := workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)}
		if _, err := nalb.Schedule(vm); err != nil {
			t.Fatalf("VM %d: %v", i, err)
		}
	}
	// Inspect rack 0's first RAM box: flows should be spread, i.e. no
	// uplink should carry more than ceil(total/uplinks)+demand.
	if err := st.Fabric.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNULBReleaseRestoresState(t *testing.T) {
	st := defaultState(t)
	nulb := NewNULB(st)
	cpuFree := st.Cluster.TotalFree(units.CPU)
	intraFree := st.Fabric.IntraRackFree()
	a, err := nulb.Schedule(typicalVM())
	if err != nil {
		t.Fatal(err)
	}
	nulb.Release(a)
	if st.Cluster.TotalFree(units.CPU) != cpuFree {
		t.Error("compute not restored")
	}
	if st.Fabric.IntraRackFree() != intraFree {
		t.Error("bandwidth not restored")
	}
}

func TestSchedulersFillWholeCluster(t *testing.T) {
	// Scheduling CPU-box-sized VMs until the first drop must consume the
	// whole CPU plane without ever corrupting state. (A full 512 GB RAM
	// box would need a 640 Gb/s flow — more than one 200 Gb/s link — so
	// the RAM component stays link-feasible at 32 GB.)
	st := defaultState(t)
	nulb := NewNULB(st)
	n := 0
	for {
		vm := workload.VM{ID: n, Lifetime: 1, Req: units.Vec(512, 32, 8192)}
		if _, err := nulb.Schedule(vm); err != nil {
			break
		}
		n++
		if n > 1000 {
			t.Fatal("runaway scheduling loop")
		}
	}
	// 18 racks x 2 CPU boxes (and exactly as many storage boxes) = 36.
	if n != 36 {
		t.Errorf("scheduled %d box-sized VMs, want 36", n)
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := st.Fabric.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// NALB's distinguishing behavior: the BFS prefers candidate boxes with
// more available uplink bandwidth, where NULB takes the first in index
// order.
func TestNALBPrefersHigherBandwidthBox(t *testing.T) {
	mkState := func() *sched.State {
		st := defaultState(t)
		// Drain most uplink bandwidth of rack 0's first RAM box using raw
		// flows to a storage box.
		rack := st.Cluster.Rack(0)
		ram0 := rack.BoxesOf(units.RAM)[0]
		sto := rack.BoxesOf(units.Storage)[1]
		for i := 0; i < st.Fabric.Config().BoxUplinks-1; i++ {
			if _, err := st.Fabric.AllocateFlow(ram0, sto, 200, network.FirstFit); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	// CPU is the scarcest resource for this request, so the scarce box is
	// a CPU box in rack 0 and RAM is found by BFS.
	vm := workload.VM{ID: 0, Lifetime: 1, Req: units.Vec(32, 4, 64)}

	st := mkState()
	a, err := NewNULB(st).Schedule(vm)
	if err != nil {
		t.Fatal(err)
	}
	if a.RAM.Box.KindIndex() != 0 {
		t.Errorf("NULB should take the first RAM box, got %d", a.RAM.Box.KindIndex())
	}

	st2 := mkState()
	a2, err := NewNALB(st2).Schedule(vm)
	if err != nil {
		t.Fatal(err)
	}
	if a2.RAM.Box.KindIndex() != 1 {
		t.Errorf("NALB should prefer the bandwidth-rich RAM box, got %d", a2.RAM.Box.KindIndex())
	}
}

// NALB's network phase spreads flows across uplinks (MaxAvail), NULB
// packs them (FirstFit).
func TestNetworkPhasePolicies(t *testing.T) {
	vm := workload.VM{ID: 0, Lifetime: 1, Req: units.Vec(8, 16, 128)}

	st := defaultState(t)
	nulb := NewNULB(st)
	a1, err := nulb.Schedule(vm)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := nulb.Schedule(workload.VM{ID: 1, Lifetime: 1, Req: vm.Req})
	if err != nil {
		t.Fatal(err)
	}
	// First-fit: both flows pack onto uplink #0.
	if a1.CPURAMFlow.Links()[0].Index() != 0 || a2.CPURAMFlow.Links()[0].Index() != 0 {
		t.Error("NULB should pack the first uplink")
	}

	st2 := defaultState(t)
	nalb := NewNALB(st2)
	b1, err := nalb.Schedule(vm)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := nalb.Schedule(workload.VM{ID: 1, Lifetime: 1, Req: vm.Req})
	if err != nil {
		t.Fatal(err)
	}
	// Max-avail: the second flow lands on a different (fresh) uplink.
	if b1.CPURAMFlow.Links()[0].Index() == b2.CPURAMFlow.Links()[0].Index() &&
		b1.CPU.Box == b2.CPU.Box {
		t.Error("NALB should spread flows across uplinks")
	}
}
