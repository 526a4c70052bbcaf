package sched

import (
	"testing"

	"risa/internal/network"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

func testState(t *testing.T) *State {
	t.Helper()
	st, err := NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func testTriple(st *State) BoxTriple {
	rack := st.Cluster.Rack(0)
	return BoxTriple{
		units.CPU:     rack.BoxesOf(units.CPU)[0],
		units.RAM:     rack.BoxesOf(units.RAM)[0],
		units.Storage: rack.BoxesOf(units.Storage)[0],
	}
}

// TestAssignmentPoolRecycles pins the pooling contract: a released
// assignment record is handed back by the next AllocateVM, with its
// brick-share buffers intact, and the steady-state round trip allocates
// nothing.
func TestAssignmentPoolRecycles(t *testing.T) {
	st := testState(t)
	vm := workload.VM{ID: 1, Lifetime: 1, Req: units.Vec(8, 16, 128)}
	a1, err := st.AllocateVM(vm, testTriple(st), network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	st.ReleaseVM(a1)
	a2, err := st.AllocateVM(vm, testTriple(st), network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a1 {
		t.Fatal("second AllocateVM did not recycle the released record")
	}
	st.ReleaseVM(a2)
	if avg := testing.AllocsPerRun(200, func() {
		a, err := st.AllocateVM(vm, testTriple(st), network.FirstFit)
		if err != nil {
			t.Fatal(err)
		}
		st.ReleaseVM(a)
	}); avg != 0 {
		t.Fatalf("steady-state AllocateVM+ReleaseVM allocates %.2f times, want 0", avg)
	}
}

// TestAssignmentPoolFailedAllocateRecycles: a failed AllocateVM must roll
// back fully, return no record, and hand the one it drew back to the pool
// — the next placement reuses it instead of raising the high-water mark.
func TestAssignmentPoolFailedAllocateRecycles(t *testing.T) {
	st := testState(t)
	free := st.Cluster.TotalFree(units.CPU)
	boxes := testTriple(st)
	// Request more CPU than one box holds: the placement fails.
	vm := workload.VM{ID: 1, Lifetime: 1, Req: units.Vec(1<<40, 16, 128)}
	if a, err := st.AllocateVM(vm, boxes, network.FirstFit); err == nil || a != nil {
		t.Fatalf("oversized request must fail without a record, got %v, %v", a, err)
	}
	if got := st.Cluster.TotalFree(units.CPU); got != free {
		t.Fatalf("failed allocate leaked CPU: %d != %d", got, free)
	}
	if st.inUse != 0 {
		t.Fatalf("failed allocate left %d records in use, want 0", st.inUse)
	}
	vm.Req = units.Vec(8, 16, 128)
	if _, err := st.AllocateVM(vm, boxes, network.FirstFit); err != nil {
		t.Fatal(err)
	}
	if st.inUse != 1 || st.AllocatedAssignments() != 1 {
		t.Fatalf("after one live placement: %d in use, high-water %d, want 1 and 1",
			st.inUse, st.AllocatedAssignments())
	}
}

// TestReleaseVMKeepLeavesRecordWithCaller covers the preemption hand-off:
// a record released with ReleaseVMKeep gives its holdings back but stays
// with the caller, out of the pool, until the caller releases it.
func TestReleaseVMKeepLeavesRecordWithCaller(t *testing.T) {
	st := testState(t)
	vm := workload.VM{ID: 1, Lifetime: 1, Req: units.Vec(8, 16, 128)}
	a, err := st.AllocateVM(vm, testTriple(st), network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	st.ReleaseVMKeep(a)
	if a.pooled || st.inUse != 1 {
		t.Fatal("ReleaseVMKeep must not pool the record")
	}
	if !a.CPU.IsZero() || a.CPURAMFlow != nil {
		t.Fatal("ReleaseVMKeep must clear the record's holdings")
	}
	st.ReleaseVM(a)
	if !a.pooled || st.inUse != 0 {
		t.Fatal("releasing the kept record must pool it")
	}
}

// TestReleaseVMDoubleReleaseIsNoop: releasing the same record twice must
// not corrupt the pool (a double insertion would hand one record to two
// future VMs).
func TestReleaseVMDoubleReleaseIsNoop(t *testing.T) {
	st := testState(t)
	vm := workload.VM{ID: 1, Lifetime: 1, Req: units.Vec(8, 16, 128)}
	a, err := st.AllocateVM(vm, testTriple(st), network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	st.ReleaseVM(a)
	pooled := len(st.freeAssignments)
	st.ReleaseVM(a)
	if len(st.freeAssignments) != pooled || st.inUse != 0 {
		t.Fatalf("double release: pool %d → %d records, %d in use; want no change and 0",
			pooled, len(st.freeAssignments), st.inUse)
	}
	b, err := st.AllocateVM(vm, testTriple(st), network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.AllocateVM(vm, testTriple(st), network.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if b == c {
		t.Fatal("pool handed the same record to two live VMs")
	}
}
