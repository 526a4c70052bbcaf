package core

import (
	"testing"

	"risa/internal/sched"
	"risa/internal/units"
	"risa/internal/workload"
)

func TestBoxPolicyString(t *testing.T) {
	want := map[BoxPolicy]string{
		NextFit:      "next-fit",
		BestFit:      "best-fit",
		FirstFit:     "first-fit",
		WorstFit:     "worst-fit",
		BoxPolicy(9): "BoxPolicy(9)",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

func TestNameFollowsPacking(t *testing.T) {
	st := defaultState(t)
	for _, c := range []struct {
		opts Options
		want string
	}{
		{Options{}, "RISA"},
		{Options{Packing: BestFit}, "RISA-BF"},
		{Options{Packing: BestFit, DisableRoundRobin: true}, "RISA-BF"},
		{Options{Packing: FirstFit}, "RISA"},
		{Options{Packing: WorstFit, DisableRoundRobin: true}, "RISA"},
	} {
		if got := NewWithOptions(st, c.opts).Name(); got != c.want {
			t.Errorf("%+v: Name = %q, want %q", c.opts, got, c.want)
		}
	}
}

func TestDisableRoundRobinPinsFirstRack(t *testing.T) {
	st := defaultState(t)
	r := NewWithOptions(st, Options{DisableRoundRobin: true})
	for i := 0; i < 10; i++ {
		a, err := r.Schedule(typicalVM(i))
		if err != nil {
			t.Fatal(err)
		}
		if a.CPU.Box.Rack() != 0 {
			t.Fatalf("VM %d landed on rack %d; without round-robin everything goes to rack 0",
				i, a.CPU.Box.Rack())
		}
	}
	if r.cursor != 0 {
		t.Errorf("cursor moved to %d with round-robin disabled", r.cursor)
	}
}

func TestWorstFitSpreadsAcrossBoxes(t *testing.T) {
	st := defaultState(t)
	r := NewWithOptions(st, Options{Packing: WorstFit, DisableRoundRobin: true})
	// First VM takes box 0 (both boxes equal, ties break to the first
	// strictly-greater, so box 0 stays chosen); afterwards box 1 has more
	// free space, so the second VM must go there.
	a1, err := r.Schedule(typicalVM(0))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.Schedule(typicalVM(1))
	if err != nil {
		t.Fatal(err)
	}
	if a1.CPU.Box.KindIndex() == a2.CPU.Box.KindIndex() {
		t.Error("worst-fit should alternate boxes")
	}
}

func TestFirstFitReturnsToEarlierBox(t *testing.T) {
	// The distinguishing trace from Table 4: after moving to box 1,
	// first-fit returns to box 0 for a small VM where next-fit stays.
	st := toyState(t)
	r := NewWithOptions(st, Options{Packing: FirstFit})
	reqs := []units.Amount{15, 10, 30, 12, 5}
	wantBox := []int{0, 0, 0, 1, 0} // next-fit (paper RISA) gives ...,1,1
	for i, cores := range reqs {
		a, err := r.Schedule(cpuOnlyVM(i, cores))
		if err != nil {
			t.Fatalf("VM %d: %v", i, err)
		}
		if got := a.CPU.Box.KindIndex(); got != wantBox[i] {
			t.Errorf("VM %d → box %d, want %d (plain first-fit)", i, got, wantBox[i])
		}
	}
}

func TestAblatedVariantsStillIntraRack(t *testing.T) {
	// Whatever the packing policy, pool-based placement stays intra-rack.
	for _, p := range []BoxPolicy{NextFit, BestFit, FirstFit, WorstFit} {
		st := defaultState(t)
		r := NewWithOptions(st, Options{Packing: p})
		for i := 0; i < 50; i++ {
			a, err := r.Schedule(typicalVM(i))
			if err != nil {
				t.Fatalf("%v VM %d: %v", p, i, err)
			}
			if a.InterRack() {
				t.Fatalf("%v produced inter-rack placement on empty cluster", p)
			}
		}
	}
}

func TestNoRoundRobinSkewsLoad(t *testing.T) {
	// The ablation's point: without round-robin, rack 0 fills while the
	// rest stay empty.
	st := defaultState(t)
	r := NewWithOptions(st, Options{DisableRoundRobin: true})
	for i := 0; i < 60; i++ {
		if _, err := r.Schedule(typicalVM(i)); err != nil {
			t.Fatal(err)
		}
	}
	rack0 := st.Cluster.Rack(0).Free(units.RAM)
	rack1 := st.Cluster.Rack(1).Free(units.RAM)
	if rack0 >= rack1 {
		t.Errorf("rack 0 should be fuller: free %d vs %d", rack0, rack1)
	}
	if st.Cluster.Rack(1).Free(units.RAM) != st.Cluster.Rack(1).BoxesOf(units.RAM)[0].Capacity()*2 {
		t.Error("rack 1 should be untouched")
	}
}

func TestSchedulerInterfaceCompliance(t *testing.T) {
	st := defaultState(t)
	var _ sched.Scheduler = New(st)
	var _ sched.Scheduler = NewBF(st)
	var _ sched.Scheduler = NewWithOptions(st, Options{Packing: WorstFit})
}

func TestAblatedVariantsReleaseCleanly(t *testing.T) {
	for _, p := range []BoxPolicy{NextFit, BestFit, FirstFit, WorstFit} {
		st := defaultState(t)
		r := NewWithOptions(st, Options{Packing: p})
		var as []*sched.Assignment
		for i := 0; i < 20; i++ {
			a, err := r.Schedule(workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)})
			if err != nil {
				t.Fatal(err)
			}
			as = append(as, a)
		}
		for _, a := range as {
			r.Release(a)
		}
		if st.Cluster.TotalFree(units.CPU) != st.Cluster.TotalCapacity(units.CPU) {
			t.Errorf("%v leaked compute", p)
		}
		if st.Fabric.IntraRackFree() != st.Fabric.IntraRackCapacity() {
			t.Errorf("%v leaked bandwidth", p)
		}
	}
}
