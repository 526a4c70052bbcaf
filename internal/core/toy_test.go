package core

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

// toyState reproduces the exact Table 3 availability (see the table in the
// baseline package's test for the layout).
func toyState(t testing.TB) *sched.State {
	t.Helper()
	st, err := sched.NewState(toyConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	occupy := func(rack, box int, kind units.Resource, amt units.Amount) {
		t.Helper()
		if err := st.Cluster.Preoccupy(rack, box, kind, amt); err != nil {
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

// Toy example 1 (§4.3.1): RISA must place the typical VM (8 cores / 16 GB /
// 128 GB) entirely in rack 1 — box ids (2, 2, 2) — where NULB would have
// split it across racks.
func TestToyExample1RISA(t *testing.T) {
	st := toyState(t)
	risa := New(st)
	vm := workload.VM{ID: 0, Lifetime: 100, Req: units.Vec(8, 16, 128)}
	a, err := risa.Schedule(vm)
	if err != nil {
		t.Fatalf("RISA should schedule the toy VM: %v", err)
	}
	if a.InterRack() {
		t.Fatal("RISA must keep the toy VM intra-rack")
	}
	for _, p := range []struct {
		name string
		pl   topology.Placement
	}{{"CPU", a.CPU}, {"RAM", a.RAM}, {"STO", a.STO}} {
		if p.pl.Box.Rack() != 1 || p.pl.Box.KindIndex() != 0 {
			t.Errorf("%s at r%d/k%d, want r1/k0 (paper id 2)",
				p.name, p.pl.Box.Rack(), p.pl.Box.KindIndex())
		}
	}
	if a.CPURAMLatency() != sched.IntraRackCPURAMLatency {
		t.Error("intra-rack assignment must have 110ns CPU-RAM latency")
	}
}

// cpuOnlyVM builds the CPU-only requests of toy example 2.
func cpuOnlyVM(id int, cores units.Amount) workload.VM {
	return workload.VM{ID: id, Lifetime: 100, Req: units.Vec(cores, 0, 0)}
}

// Toy example 2 (§4.3.2, Table 4): the CPU-only VM sequence
// 15, 10, 30, 12, 5, 8, 16, 4 against rack 1's boxes (64 and 32 free).
//
// RISA (next-fit) must produce boxes 0,0,0,1,1,1,drop,1 — exactly the
// paper's RISA column.
func TestToyExample2RISA(t *testing.T) {
	st := toyState(t)
	risa := New(st)
	reqs := []units.Amount{15, 10, 30, 12, 5, 8, 16, 4}
	wantBox := []int{0, 0, 0, 1, 1, 1, -1, 1} // -1 = dropped
	for i, cores := range reqs {
		a, err := risa.Schedule(cpuOnlyVM(i, cores))
		if wantBox[i] == -1 {
			if err == nil {
				t.Fatalf("VM %d (%d cores) should be dropped", i, cores)
			}
			continue
		}
		if err != nil {
			t.Fatalf("VM %d (%d cores): %v", i, cores, err)
		}
		if a.CPU.Box.Rack() != 1 {
			t.Fatalf("VM %d landed in rack %d, want 1", i, a.CPU.Box.Rack())
		}
		if got := a.CPU.Box.KindIndex(); got != wantBox[i] {
			t.Errorf("VM %d (%d cores) → box %d, want %d (Table 4 RISA column)",
				i, cores, got, wantBox[i])
		}
	}
}

// RISA-BF (best-fit) on the same sequence must produce the paper's RISA-BF
// column 1,1,0,0,1,0,?,0 — except VM 6, which the paper claims fits but
// arithmetically cannot (requests sum to 100 cores against 96 available;
// see DESIGN.md §4). Best-fit drops VM 6 and schedules everything else as
// the paper shows.
func TestToyExample2RISABF(t *testing.T) {
	st := toyState(t)
	risabf := NewBF(st)
	reqs := []units.Amount{15, 10, 30, 12, 5, 8, 16, 4}
	wantBox := []int{1, 1, 0, 0, 1, 0, -1, 0}
	for i, cores := range reqs {
		a, err := risabf.Schedule(cpuOnlyVM(i, cores))
		if wantBox[i] == -1 {
			if err == nil {
				t.Fatalf("VM %d (%d cores) cannot fit (paper arithmetic error); must drop", i, cores)
			}
			continue
		}
		if err != nil {
			t.Fatalf("VM %d (%d cores): %v", i, cores, err)
		}
		if got := a.CPU.Box.KindIndex(); got != wantBox[i] {
			t.Errorf("VM %d (%d cores) → box %d, want %d (Table 4 RISA-BF column)",
				i, cores, got, wantBox[i])
		}
	}
}

// RISA-BF strands fewer cores than RISA on the toy sequence — the point of
// §4.3.2 even with the paper's arithmetic slip.
func TestToyExample2PackingComparison(t *testing.T) {
	reqs := []units.Amount{15, 10, 30, 12, 5, 8, 16, 4}
	run := func(s sched.Scheduler) (scheduled int, cores units.Amount) {
		for i, c := range reqs {
			if _, err := s.Schedule(cpuOnlyVM(i, c)); err == nil {
				scheduled++
				cores += c
			}
		}
		return
	}
	stA := toyState(t)
	nA, coresA := run(New(stA))
	stB := toyState(t)
	nB, coresB := run(NewBF(stB))
	if nA != 7 || nB != 7 {
		t.Errorf("scheduled RISA=%d RISA-BF=%d, want 7 and 7", nA, nB)
	}
	if coresA != 84 || coresB != 84 {
		t.Errorf("cores RISA=%d RISA-BF=%d, want 84 (VM 6's 16 cores dropped)", coresA, coresB)
	}
}
