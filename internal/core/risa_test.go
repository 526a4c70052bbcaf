package core

import (
	"testing"

	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

func defaultState(t testing.TB) *sched.State {
	t.Helper()
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func typicalVM(id int) workload.VM {
	return workload.VM{ID: id, Lifetime: 100, Req: units.Vec(8, 16, 128)}
}

func TestNames(t *testing.T) {
	st := defaultState(t)
	if New(st).Name() != "RISA" {
		t.Error("RISA name")
	}
	if NewBF(st).Name() != "RISA-BF" {
		t.Error("RISA-BF name")
	}
}

func TestRISAKeepsVMsIntraRack(t *testing.T) {
	st := defaultState(t)
	risa := New(st)
	for i := 0; i < 100; i++ {
		a, err := risa.Schedule(typicalVM(i))
		if err != nil {
			t.Fatalf("VM %d: %v", i, err)
		}
		if a.InterRack() {
			t.Fatalf("VM %d went inter-rack on a near-empty cluster", i)
		}
	}
	if st.Fabric.InterRackFree() != st.Fabric.InterRackCapacity() {
		t.Error("no inter-rack bandwidth should be consumed")
	}
}

func TestRISARoundRobinBalancesRacks(t *testing.T) {
	st := defaultState(t)
	risa := New(st)
	n := st.Cluster.NumRacks()
	used := make([]int, n)
	// Schedule exactly one lap of the pool: VMs must land on racks
	// 0, 1, 2, ... in order.
	for i := 0; i < n; i++ {
		a, err := risa.Schedule(typicalVM(i))
		if err != nil {
			t.Fatal(err)
		}
		rack := a.CPU.Box.Rack()
		used[rack]++
		if rack != i {
			t.Errorf("VM %d landed on rack %d, want %d (round-robin)", i, rack, i)
		}
	}
	for r, c := range used {
		if c != 1 {
			t.Errorf("rack %d used %d times in one lap", r, c)
		}
	}
	// Second lap wraps.
	a, err := risa.Schedule(typicalVM(n))
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU.Box.Rack() != 0 {
		t.Errorf("lap 2 should wrap to rack 0, got %d", a.CPU.Box.Rack())
	}
}

func TestRISACursorAdvances(t *testing.T) {
	st := defaultState(t)
	risa := New(st)
	if risa.cursor != 0 {
		t.Fatal("fresh cursor should be 0")
	}
	if _, err := risa.Schedule(typicalVM(0)); err != nil {
		t.Fatal(err)
	}
	if risa.cursor != 1 {
		t.Errorf("cursor = %d after first VM, want 1", risa.cursor)
	}
}

// TestBoxCursorsDenseAndPersistent: the next-fit box cursors are stored
// densely up to the highest rack touched, persist across lookups, cost
// nothing to look up once grown, and stay out of SchedulerState until a
// rack is touched.
func TestBoxCursorsDenseAndPersistent(t *testing.T) {
	r := New(defaultState(t))
	if got := r.SchedulerState().BoxCursors; got != nil {
		t.Fatalf("untouched scheduler's BoxCursors = %v, want nil", got)
	}
	c5 := r.boxCursors(5)
	c5[units.RAM] = 7
	if got := r.boxCursors(5)[units.RAM]; got != 7 {
		t.Fatalf("cursor not persistent: %d", got)
	}
	if got := r.boxCursors(2)[units.RAM]; got != 0 {
		t.Fatalf("untouched cursor = %d, want 0", got)
	}
	if n := len(r.SchedulerState().BoxCursors); n != 6 {
		t.Fatalf("BoxCursors holds %d racks, want 6 (dense up to rack 5)", n)
	}
	if avg := testing.AllocsPerRun(100, func() { r.boxCursors(5) }); avg != 0 {
		t.Fatalf("cursor lookup allocates %.2f times per call, want 0", avg)
	}
}

func TestRISASkipsRacksWithoutCapacity(t *testing.T) {
	st := defaultState(t)
	risa := New(st)
	// Exhaust rack 0's RAM entirely: it leaves the pool.
	for _, b := range st.Cluster.Rack(0).BoxesOf(units.RAM) {
		if _, err := st.Cluster.Allocate(b, b.Free()); err != nil {
			t.Fatal(err)
		}
	}
	a, err := risa.Schedule(typicalVM(0))
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU.Box.Rack() == 0 {
		t.Error("rack 0 cannot host the VM; pool must skip it")
	}
	if a.InterRack() {
		t.Error("other racks can host the VM intra-rack")
	}
}

func TestRISASuperRackFallback(t *testing.T) {
	// Build a state where no single rack fits the VM but the cluster
	// does: rack 0 has RAM only, rack 1 has CPU+STO only.
	st := toyState(t)
	// Exhaust rack 1's RAM (32 and 16 free).
	if err := st.Cluster.Preoccupy(1, 0, units.RAM, 32); err != nil {
		t.Fatal(err)
	}
	if err := st.Cluster.Preoccupy(1, 1, units.RAM, 16); err != nil {
		t.Fatal(err)
	}
	risa := New(st)
	vm := workload.VM{ID: 0, Lifetime: 100, Req: units.Vec(8, 16, 128)}
	a, err := risa.Schedule(vm)
	if err != nil {
		t.Fatalf("SUPER_RACK fallback should place the VM: %v", err)
	}
	if !a.InterRack() {
		t.Error("fallback placement must be inter-rack here")
	}
	if a.RAM.Box.Rack() != 0 {
		t.Errorf("RAM must come from rack 0, got %d", a.RAM.Box.Rack())
	}
	if a.CPU.Box.Rack() != 1 || a.STO.Box.Rack() != 1 {
		t.Error("CPU and storage must come from rack 1")
	}
}

func TestRISADropsWhenImpossible(t *testing.T) {
	st := defaultState(t)
	risa := New(st)
	// 513 cores exceed any single box.
	vm := workload.VM{ID: 0, Lifetime: 1, Req: units.Vec(513, 16, 128)}
	if _, err := risa.Schedule(vm); err == nil {
		t.Error("oversized VM must drop")
	}
	// Invalid requests are rejected outright.
	if _, err := risa.Schedule(workload.VM{ID: 1, Lifetime: 1}); err == nil {
		t.Error("zero request must be rejected")
	}
	if _, err := risa.Schedule(workload.VM{ID: 2, Lifetime: 1, Req: units.Vec(-1, 1, 1)}); err == nil {
		t.Error("negative request must be rejected")
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRISAReleaseRestoresState(t *testing.T) {
	st := defaultState(t)
	risa := New(st)
	cpuFree := st.Cluster.TotalFree(units.CPU)
	intraFree := st.Fabric.IntraRackFree()
	a, err := risa.Schedule(typicalVM(0))
	if err != nil {
		t.Fatal(err)
	}
	risa.Release(a)
	if st.Cluster.TotalFree(units.CPU) != cpuFree {
		t.Error("compute not restored")
	}
	if st.Fabric.IntraRackFree() != intraFree {
		t.Error("bandwidth not restored")
	}
}

func TestRISANetworkGateFallsBackToSuperRack(t *testing.T) {
	st := defaultState(t)
	risa := New(st)
	// Saturate every rack's intra-rack links except rack 2's, using raw
	// flows that bypass the scheduler.
	for _, rack := range st.Cluster.Racks() {
		if rack.Index() == 2 {
			continue
		}
		cpu := rack.BoxesOf(units.CPU)[0]
		ram := rack.BoxesOf(units.RAM)[0]
		sto := rack.BoxesOf(units.Storage)[0]
		targets := []*topology.Box{ram, sto, rack.BoxesOf(units.CPU)[1],
			rack.BoxesOf(units.RAM)[1], rack.BoxesOf(units.Storage)[1]}
		for {
			done := true
			for _, dst := range targets {
				if _, err := st.Fabric.AllocateFlow(cpu, dst, 200, network.FirstFit); err == nil {
					done = false
				}
			}
			if done {
				break
			}
		}
	}
	// Not all uplinks can be saturated pairwise, but rack 2 must win the
	// AVAIL_INTRA_RACK_NET comparison over fully drained racks.
	a, err := risa.Schedule(typicalVM(0))
	if err != nil {
		t.Fatalf("rack 2 is available: %v", err)
	}
	if a.InterRack() {
		t.Error("placement should be intra-rack in rack 2")
	}
}

func TestRISABFPacksTighter(t *testing.T) {
	// Two VMs of different size: best-fit should co-locate the second
	// into the fuller box, first-fit-style RISA into its cursor box.
	st := defaultState(t)
	risabf := NewBF(st)
	// Pre-fill rack 0's second CPU box so it is the "fuller" one.
	b1 := st.Cluster.Rack(0).BoxesOf(units.CPU)[1]
	if _, err := st.Cluster.Allocate(b1, 500); err != nil {
		t.Fatal(err)
	}
	a, err := risabf.Schedule(typicalVM(0))
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU.Box.KindIndex() != 1 {
		t.Errorf("best-fit should choose the fuller box 1, got %d", a.CPU.Box.KindIndex())
	}
	// First-fit/next-fit RISA would pick box 0.
	st2 := defaultState(t)
	risa := New(st2)
	b1b := st2.Cluster.Rack(0).BoxesOf(units.CPU)[1]
	if _, err := st2.Cluster.Allocate(b1b, 500); err != nil {
		t.Fatal(err)
	}
	a2, err := risa.Schedule(typicalVM(0))
	if err != nil {
		t.Fatal(err)
	}
	if a2.CPU.Box.KindIndex() != 0 {
		t.Errorf("next-fit should start at box 0, got %d", a2.CPU.Box.KindIndex())
	}
}

func TestRISAZeroStorageVM(t *testing.T) {
	st := defaultState(t)
	risa := New(st)
	vm := workload.VM{ID: 0, Lifetime: 1, Req: units.Vec(8, 16, 0)}
	a, err := risa.Schedule(vm)
	if err != nil {
		t.Fatal(err)
	}
	if !a.STO.IsZero() || a.RAMSTOFlow != nil {
		t.Error("no storage placement expected")
	}
	if a.InterRack() {
		t.Error("should stay intra-rack")
	}
}

func TestRISAFullClusterChurn(t *testing.T) {
	// Schedule until first drop, release half, schedule again; state must
	// stay consistent throughout.
	st := defaultState(t)
	risa := New(st)
	var live []*sched.Assignment
	i := 0
	for {
		a, err := risa.Schedule(typicalVM(i))
		if err != nil {
			break
		}
		live = append(live, a)
		i++
		if i > 100000 {
			t.Fatal("runaway loop")
		}
	}
	if len(live) == 0 {
		t.Fatal("nothing scheduled")
	}
	for j := 0; j < len(live); j += 2 {
		risa.Release(live[j])
	}
	// Schedule more after the churn.
	again := 0
	for {
		a, err := risa.Schedule(typicalVM(i))
		if err != nil {
			break
		}
		_ = a
		again++
		i++
		if again > len(live) {
			break
		}
	}
	if again == 0 {
		t.Error("released capacity should be schedulable again")
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := st.Fabric.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// The cluster-level capacity cap: with 8 uplinks per box the storage
// plane is the binding constraint for typical VMs (64 VMs per storage
// box, 2304 cluster-wide).
func TestRISAStorageBoundCapacity(t *testing.T) {
	st := defaultState(t)
	risa := New(st)
	n := 0
	for {
		if _, err := risa.Schedule(typicalVM(n)); err != nil {
			break
		}
		n++
		if n > 5000 {
			t.Fatal("runaway loop")
		}
	}
	// 18 racks x 2 storage boxes x 64 VMs (8192/128) = 2304 placements,
	// unless network or RAM binds first. RAM: 16 GB x N ≤ 18432 → 1152.
	// So RAM binds at 1152.
	if n != 1152 {
		t.Errorf("scheduled %d typical VMs, want 1152 (RAM-bound)", n)
	}
}
