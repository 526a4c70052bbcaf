package network

import (
	"errors"
	"testing"

	"risa/internal/topology"
	"risa/internal/units"
)

// TestFlowPoolRecycles pins the fabric's flow pooling: a released flow
// record is handed back by the next AllocateFlow, and the steady-state
// allocate/release cycle performs zero heap allocations.
func TestFlowPoolRecycles(t *testing.T) {
	cl, f := testFabric(t)
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	dst := cl.Rack(1).BoxesOf(units.RAM)[0]
	fl1, err := f.AllocateFlow(src, dst, 20, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	f.ReleaseFlow(fl1)
	fl2, err := f.AllocateFlow(src, dst, 20, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if fl2 != fl1 {
		t.Fatal("second AllocateFlow did not recycle the released record")
	}
	f.ReleaseFlow(fl2)
	if avg := testing.AllocsPerRun(200, func() {
		fl, err := f.AllocateFlow(src, dst, 20, FirstFit)
		if err != nil {
			t.Fatal(err)
		}
		f.ReleaseFlow(fl)
	}); avg != 0 {
		t.Fatalf("steady-state flow cycle allocates %.2f times, want 0", avg)
	}
}

// TestFlowPoolDoubleReleaseGuard: releasing the same flow twice must pool
// it exactly once — a double insertion would hand one record to two
// concurrent reservations.
func TestFlowPoolDoubleReleaseGuard(t *testing.T) {
	cl, f := testFabric(t)
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	dst := cl.Rack(0).BoxesOf(units.RAM)[0]
	fl, err := f.AllocateFlow(src, dst, 20, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	f.ReleaseFlow(fl)
	f.ReleaseFlow(fl)
	if len(f.freeFlows) != 1 {
		t.Fatalf("double release pooled the flow %d times, want 1", len(f.freeFlows))
	}
	a, err := f.AllocateFlow(src, dst, 20, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.AllocateFlow(src, dst, 20, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("pool handed the same record to two live flows")
	}
}

// TestReserveSentinelErrors: a refused Reserve returns its tier's
// preallocated sentinel, matchable with errors.Is, after rolling back every
// hop it took: the flow is left empty, every tier's free bandwidth is
// unchanged, and the refusal allocates nothing, so failed probes on the
// scheduling hot path cost no garbage.
func TestReserveSentinelErrors(t *testing.T) {
	tcfg := topology.DefaultConfig()
	tcfg.Racks = 4
	cl, err := topology.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	// One usable link per group: one uplink per box, and every rack and
	// pod (pods {0, 1} and {2, 3}) with all but its first uplink failed.
	f, err := NewFabric(cl, Config{BoxUplinks: 1, RacksPerPod: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, group := range append(f.rackUplinks, f.podUplinks...) {
		for i := range group[1:] {
			f.SetLinkFailed(&group[1+i], true)
		}
	}
	cpu := func(rack, i int) *topology.Box { return cl.Rack(rack).BoxesOf(units.CPU)[i] }
	ram := func(rack int) *topology.Box { return cl.Rack(rack).BoxesOf(units.RAM)[0] }
	for _, c := range []struct {
		name               string
		heldSrc, heldDst   *topology.Box // a full-capacity circuit saturating the tier
		probeSrc, probeDst *topology.Box // refused at that tier
		want               error
	}{
		// The probe's first hop is the full box uplink.
		{"box", cpu(0, 0), ram(0), cpu(0, 0), ram(0), ErrNoBoxUplink},
		// The probe takes its own box uplink, then meets rack 0's.
		{"rack", cpu(0, 0), ram(1), cpu(0, 1), ram(1), ErrNoRackUplink},
		// The probe takes its box and rack uplinks, then meets pod 0's.
		{"pod", cpu(0, 0), ram(2), cpu(1, 0), ram(3), ErrNoPodUplink},
	} {
		var held, fl Flow
		if err := f.Reserve(&held, c.heldSrc, c.heldDst, units.LinkCapacity, FirstFit); err != nil {
			t.Fatalf("%s: saturating circuit: %v", c.name, err)
		}
		intra, inter, pod := f.IntraRackFree(), f.InterRackFree(), f.InterPodFree()
		if err := f.Reserve(&fl, c.probeSrc, c.probeDst, 1, FirstFit); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if fl != (Flow{}) {
			t.Errorf("%s: a refused Reserve left the flow holding %d links", c.name, fl.n)
		}
		if f.IntraRackFree() != intra || f.InterRackFree() != inter || f.InterPodFree() != pod {
			t.Errorf("%s: a refused Reserve kept bandwidth reserved", c.name)
		}
		if avg := testing.AllocsPerRun(100, func() {
			if f.Reserve(&fl, c.probeSrc, c.probeDst, 1, FirstFit) == nil {
				t.Fatalf("%s: probe admitted", c.name)
			}
		}); avg != 0 {
			t.Errorf("%s: a refused Reserve allocates %.2f times, want 0", c.name, avg)
		}
		f.Unreserve(&held)
		if err := f.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestReplayRefusals: the replay primitive refuses a recorded path it
// cannot hold — more links than any path the fabric builds (what a damaged
// snapshot decodes to), a shape it never builds (between pods but inside
// one rack), a failed link, a link without the bandwidth — and
// in every case reserves nothing and leaves the flow empty, even after
// taking earlier links of the path.
func TestReplayRefusals(t *testing.T) {
	cl, f := testFabric(t)
	src, dst := cl.Rack(0).BoxesOf(units.CPU)[0], cl.Rack(1).BoxesOf(units.RAM)[0]
	fl, err := f.AllocateFlow(src, dst, 20, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	var path []LinkRef
	for _, l := range fl.Links() {
		path = append(path, f.Ref(l))
	}
	f.ReleaseFlow(fl)
	if len(path) != 4 {
		t.Fatalf("inter-rack path has %d links, want 4", len(path))
	}
	intra, inter := f.IntraRackFree(), f.InterRackFree()
	var replayed Flow
	refused := func(name string, bw units.Bandwidth, refs []LinkRef, interRack, interPod bool) {
		t.Helper()
		if err := f.Replay(&replayed, bw, refs, interRack, interPod); err == nil {
			t.Errorf("%s: replayed without error", name)
		}
		if replayed != (Flow{}) {
			t.Errorf("%s: a refused replay left the flow holding %d links", name, replayed.n)
		}
		if f.IntraRackFree() != intra || f.InterRackFree() != inter {
			t.Errorf("%s: a refused restore kept bandwidth reserved", name)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Seven healthy, roomy links: only the length is wrong.
	refused("overlong", 1, append(append([]LinkRef(nil), path...), path[:3]...), true, false)
	refused("pods-not-racks", 20, path, false, true)
	refused("too-wide", units.LinkCapacity+1, path, true, false)
	last, err := f.LinkByRef(path[3])
	if err != nil {
		t.Fatal(err)
	}
	f.SetLinkFailed(last, true)
	intra, inter = f.IntraRackFree(), f.InterRackFree()
	refused("failed-link", 20, path, true, false) // three links taken before the refusal
	f.SetLinkFailed(last, false)
	if err := f.Replay(&replayed, 20, path, true, false); err != nil {
		t.Fatalf("a valid six-or-fewer link path was refused: %v", err)
	}
	f.Unreserve(&replayed)
}
