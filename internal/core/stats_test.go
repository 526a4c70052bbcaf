package core

import (
	"testing"

	"risa/internal/units"
	"risa/internal/workload"
)

func TestStatsCountIntraRack(t *testing.T) {
	st := defaultState(t)
	r := New(st)
	for i := 0; i < 10; i++ {
		if _, err := r.Schedule(typicalVM(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := r.Stats()
	if s.IntraRack != 10 {
		t.Errorf("IntraRack = %d, want 10", s.IntraRack)
	}
	if s.SuperRack != 0 || s.PoolEmpty != 0 || s.NetGated != 0 || s.Dropped != 0 {
		t.Errorf("unexpected fallback counters: %+v", s)
	}
}

func TestStatsCountPoolEmptyAndSuperRack(t *testing.T) {
	st := toyState(t)
	// Exhaust rack 1's RAM so no single rack fits the typical VM.
	if err := st.Cluster.Preoccupy(1, 0, units.RAM, 32); err != nil {
		t.Fatal(err)
	}
	if err := st.Cluster.Preoccupy(1, 1, units.RAM, 16); err != nil {
		t.Fatal(err)
	}
	r := New(st)
	vm := workload.VM{ID: 0, Lifetime: 1, Req: units.Vec(8, 16, 128)}
	if _, err := r.Schedule(vm); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.PoolEmpty != 1 || s.SuperRack != 1 || s.IntraRack != 0 {
		t.Errorf("stats = %+v, want pool-empty super-rack path", s)
	}
}

func TestStatsCountDrops(t *testing.T) {
	st := defaultState(t)
	r := New(st)
	vm := workload.VM{ID: 0, Lifetime: 1, Req: units.Vec(99999, 1, 1)}
	if _, err := r.Schedule(vm); err == nil {
		t.Fatal("oversized VM must drop")
	}
	if s := r.Stats(); s.Dropped != 1 || s.PoolEmpty != 1 {
		t.Errorf("stats = %+v, want one drop via empty pool", s)
	}
}

func TestStatsUnderFillPressure(t *testing.T) {
	st := defaultState(t)
	r := New(st)
	// Fill the cluster until the first drop. Pool membership guarantees
	// compute and the calibrated fabric never gates, so every placement is
	// intra-rack; the terminal drop sees an empty pool (RAM exhausted in
	// every rack).
	n := 0
	for {
		if _, err := r.Schedule(typicalVM(n)); err != nil {
			break
		}
		n++
	}
	s := r.Stats()
	if s.Dropped != 1 || s.PoolEmpty != 1 {
		t.Errorf("terminal drop should be a pool-empty event: %+v", s)
	}
	if s.IntraRack != n {
		t.Errorf("IntraRack = %d, want %d", s.IntraRack, n)
	}
}

func TestStatsNetGated(t *testing.T) {
	// Saturate rack 0's intra-rack links; the pool still contains rack 0
	// (compute is free) but the AVAIL_INTRA_RACK_NET check must skip it,
	// probing a second rack.
	st := defaultState(t)
	r := NewWithOptions(st, Options{DisableRoundRobin: true})
	rack := st.Cluster.Rack(0)
	cpu := rack.BoxesOf(units.CPU)[0]
	targets := rack.Boxes()
	for {
		done := true
		for _, dst := range targets {
			if dst == cpu {
				continue
			}
			if _, err := st.Fabric.AllocateFlow(cpu, dst, 200, 0); err == nil {
				done = false
			}
		}
		if done {
			break
		}
	}
	// With 16 uplinks per box full pairwise saturation is impossible, so
	// rack 0 keeps aggregate headroom, but its drained CPU box cannot carry
	// the VM: the walk must move on to rack 1 and still place intra-rack.
	a, err := r.Schedule(typicalVM(0))
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU.Box.Rack() != 1 {
		t.Errorf("VM landed on rack %d, want the walk to move past rack 0 to rack 1", a.CPU.Box.Rack())
	}
	if s := r.Stats(); s.IntraRack != 1 || s.NetGated != 0 {
		t.Errorf("stats = %+v, want one intra-rack placement", s)
	}
}
