package sched

import (
	"testing"

	"risa/internal/network"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

func newState(t testing.TB) *State {
	t.Helper()
	st, err := NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func vmReq(cpu, ram, sto units.Amount) workload.VM {
	return workload.VM{ID: 1, Lifetime: 100, Req: units.Vec(cpu, ram, sto)}
}

func TestNewStateRejectsBadConfigs(t *testing.T) {
	bad := topology.DefaultConfig()
	bad.Racks = 0
	if _, err := NewState(bad, network.DefaultConfig()); err == nil {
		t.Error("bad topology config should fail")
	}
	badNet := network.DefaultConfig()
	badNet.BoxUplinks = 0
	if _, err := NewState(topology.DefaultConfig(), badNet); err == nil {
		t.Error("bad network config should fail")
	}
}

func TestAllocateVMIntraRack(t *testing.T) {
	st := newState(t)
	rack := st.Cluster.Rack(0)
	boxes := BoxTriple{
		units.CPU:     rack.BoxesOf(units.CPU)[0],
		units.RAM:     rack.BoxesOf(units.RAM)[0],
		units.Storage: rack.BoxesOf(units.Storage)[0],
	}
	vm := vmReq(8, 16, 128)
	a, err := st.AllocateVM(vm, boxes, network.FirstFit)
	if err != nil {
		t.Fatalf("AllocateVM: %v", err)
	}
	if a.InterRack() {
		t.Error("same-rack assignment reported inter-rack")
	}
	if a.CPURAMLatency() != IntraRackCPURAMLatency {
		t.Errorf("latency = %v, want 110ns", a.CPURAMLatency())
	}
	if a.CPURAMFlow == nil || a.RAMSTOFlow == nil {
		t.Fatalf("flows = %v, %v; want both circuits", a.CPURAMFlow, a.RAMSTOFlow)
	}
	// CPU-RAM flow: 16 GB = 4 RAM units → 20 Gb/s; RAM-STO: 2 units → 2.
	if a.CPURAMFlow.BW() != 20 {
		t.Errorf("CPU-RAM bw = %v, want 20", a.CPURAMFlow.BW())
	}
	if a.RAMSTOFlow.BW() != 2 {
		t.Errorf("RAM-STO bw = %v, want 2", a.RAMSTOFlow.BW())
	}
	// Compute landed.
	if a.CPU.Total != 8 || a.RAM.Total != 16 || a.STO.Total != 128 {
		t.Errorf("placements: %d/%d/%d", a.CPU.Total, a.RAM.Total, a.STO.Total)
	}
	st.ReleaseVM(a)
	if st.Cluster.TotalFree(units.CPU) != st.Cluster.TotalCapacity(units.CPU) {
		t.Error("release did not restore CPU")
	}
	if st.Fabric.IntraRackFree() != st.Fabric.IntraRackCapacity() {
		t.Error("release did not restore bandwidth")
	}
}

func TestAllocateVMInterRack(t *testing.T) {
	st := newState(t)
	boxes := BoxTriple{
		units.CPU:     st.Cluster.Rack(0).BoxesOf(units.CPU)[0],
		units.RAM:     st.Cluster.Rack(1).BoxesOf(units.RAM)[0],
		units.Storage: st.Cluster.Rack(1).BoxesOf(units.Storage)[0],
	}
	a, err := st.AllocateVM(vmReq(8, 16, 128), boxes, network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if !a.InterRack() {
		t.Error("cross-rack assignment should be inter-rack")
	}
	if a.CPURAMLatency() != InterRackCPURAMLatency {
		t.Errorf("latency = %v, want 330ns", a.CPURAMLatency())
	}
	if !a.CPURAMFlow.InterRack() {
		t.Error("CPU-RAM flow should be inter-rack")
	}
	if a.RAMSTOFlow.InterRack() {
		t.Error("RAM-STO flow is rack-local here")
	}
	st.ReleaseVM(a)
}

func TestAllocateVMStorageOnlyInterRack(t *testing.T) {
	// CPU+RAM in rack 0, storage in rack 1: the VM is inter-rack even
	// though CPU-RAM latency is intra.
	st := newState(t)
	boxes := BoxTriple{
		units.CPU:     st.Cluster.Rack(0).BoxesOf(units.CPU)[0],
		units.RAM:     st.Cluster.Rack(0).BoxesOf(units.RAM)[0],
		units.Storage: st.Cluster.Rack(1).BoxesOf(units.Storage)[0],
	}
	a, err := st.AllocateVM(vmReq(8, 16, 128), boxes, network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if !a.InterRack() {
		t.Error("assignment spans racks")
	}
	if a.CPURAMLatency() != IntraRackCPURAMLatency {
		t.Error("CPU-RAM latency should still be intra-rack")
	}
	st.ReleaseVM(a)
}

func TestAllocateVMZeroStorage(t *testing.T) {
	st := newState(t)
	rack := st.Cluster.Rack(0)
	boxes := BoxTriple{
		units.CPU: rack.BoxesOf(units.CPU)[0],
		units.RAM: rack.BoxesOf(units.RAM)[0],
	}
	a, err := st.AllocateVM(vmReq(8, 16, 0), boxes, network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if !a.STO.IsZero() {
		t.Error("no storage requested, none should be placed")
	}
	if a.RAMSTOFlow != nil {
		t.Error("no RAM-STO flow expected")
	}
	if a.CPURAMFlow == nil {
		t.Error("CPU-RAM flow expected")
	}
	st.ReleaseVM(a)
}

func TestAllocateVMCPUOnly(t *testing.T) {
	st := newState(t)
	boxes := BoxTriple{units.CPU: st.Cluster.Rack(0).BoxesOf(units.CPU)[0]}
	a, err := st.AllocateVM(vmReq(16, 0, 0), boxes, network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if a.CPURAMFlow != nil || a.RAMSTOFlow != nil {
		t.Error("CPU-only VM needs no flows")
	}
	if a.InterRack() {
		t.Error("single placement cannot be inter-rack")
	}
	if a.CPURAMLatency() != IntraRackCPURAMLatency {
		t.Error("degenerate latency should be intra")
	}
	st.ReleaseVM(a)
}

func TestAllocateVMRollsBackOnComputeFailure(t *testing.T) {
	st := newState(t)
	rack := st.Cluster.Rack(0)
	ramBox := rack.BoxesOf(units.RAM)[0]
	// Fill the RAM box so the second placement step fails after CPU
	// succeeded.
	if _, err := st.Cluster.Allocate(ramBox, ramBox.Capacity()); err != nil {
		t.Fatal(err)
	}
	cpuFree := st.Cluster.TotalFree(units.CPU)
	boxes := BoxTriple{
		units.CPU:     rack.BoxesOf(units.CPU)[0],
		units.RAM:     ramBox,
		units.Storage: rack.BoxesOf(units.Storage)[0],
	}
	if _, err := st.AllocateVM(vmReq(8, 16, 128), boxes, network.FirstFit); err == nil {
		t.Fatal("allocation into full RAM box should fail")
	}
	if st.Cluster.TotalFree(units.CPU) != cpuFree {
		t.Error("CPU placement leaked on rollback")
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := st.Fabric.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAllocateVMRollsBackOnNetworkFailure(t *testing.T) {
	st := newState(t)
	rack := st.Cluster.Rack(0)
	cpuBox := rack.BoxesOf(units.CPU)[0]
	ramBox := rack.BoxesOf(units.RAM)[0]
	stoBox := rack.BoxesOf(units.Storage)[0]
	// Saturate the CPU box's uplinks so the CPU-RAM flow cannot be
	// placed.
	for i := 0; i < network.DefaultConfig().BoxUplinks; i++ {
		if _, err := st.Fabric.AllocateFlow(cpuBox, stoBox, 200, network.FirstFit); err != nil {
			t.Fatal(err)
		}
	}
	cpuFree := st.Cluster.TotalFree(units.CPU)
	intraFree := st.Fabric.IntraRackFree()
	boxes := BoxTriple{units.CPU: cpuBox, units.RAM: ramBox, units.Storage: stoBox}
	if _, err := st.AllocateVM(vmReq(8, 16, 128), boxes, network.FirstFit); err == nil {
		t.Fatal("flow through saturated box should fail")
	}
	if st.Cluster.TotalFree(units.CPU) != cpuFree {
		t.Error("compute leaked on network rollback")
	}
	if st.Fabric.IntraRackFree() != intraFree {
		t.Error("bandwidth leaked on network rollback")
	}
}

func TestAllocateVMRejectsWrongKindBox(t *testing.T) {
	st := newState(t)
	rack := st.Cluster.Rack(0)
	boxes := BoxTriple{
		units.CPU:     rack.BoxesOf(units.RAM)[0], // wrong kind on purpose
		units.RAM:     rack.BoxesOf(units.RAM)[0],
		units.Storage: rack.BoxesOf(units.Storage)[0],
	}
	if _, err := st.AllocateVM(vmReq(8, 16, 128), boxes, network.FirstFit); err == nil {
		t.Error("RAM box offered for CPU should fail")
	}
}

func TestAllocateVMRejectsMissingBox(t *testing.T) {
	st := newState(t)
	boxes := BoxTriple{units.CPU: st.Cluster.Rack(0).BoxesOf(units.CPU)[0]}
	if _, err := st.AllocateVM(vmReq(8, 16, 128), boxes, network.FirstFit); err == nil {
		t.Error("missing RAM box should fail")
	}
}

func TestReleaseVMNil(t *testing.T) {
	st := newState(t)
	st.ReleaseVM(nil) // must not panic
}

func TestReleaseVMIdempotent(t *testing.T) {
	st := newState(t)
	rack := st.Cluster.Rack(0)
	boxes := BoxTriple{
		units.CPU:     rack.BoxesOf(units.CPU)[0],
		units.RAM:     rack.BoxesOf(units.RAM)[0],
		units.Storage: rack.BoxesOf(units.Storage)[0],
	}
	a, err := st.AllocateVM(vmReq(8, 16, 128), boxes, network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	st.ReleaseVM(a)
	st.ReleaseVM(a) // second release is a no-op thanks to cleared fields
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := st.Fabric.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestScarcestResource(t *testing.T) {
	st := newState(t)
	// Fresh cluster: CPU 18432 cores, RAM 18432 GB, STO 294912 GB free.
	// Request 8/16/128: CRs 0.00043 / 0.00087 / 0.00043 → RAM scarcest.
	r, ok := ScarcestResource(st.Cluster, units.Vec(8, 16, 128))
	if !ok || r != units.RAM {
		t.Errorf("scarcest = %v, ok=%v; want RAM", r, ok)
	}
	// Zero request → none.
	if _, ok := ScarcestResource(st.Cluster, units.Vec(0, 0, 0)); ok {
		t.Error("zero request has no scarcest resource")
	}
	// Only storage requested.
	r, ok = ScarcestResource(st.Cluster, units.Vec(0, 0, 128))
	if !ok || r != units.Storage {
		t.Errorf("storage-only scarcest = %v", r)
	}
}

func TestLatencyConstants(t *testing.T) {
	if IntraRackCPURAMLatency.Nanoseconds() != 110 {
		t.Errorf("intra latency = %v, want 110ns", IntraRackCPURAMLatency)
	}
	if InterRackCPURAMLatency.Nanoseconds() != 330 {
		t.Errorf("inter latency = %v, want 330ns", InterRackCPURAMLatency)
	}
}
