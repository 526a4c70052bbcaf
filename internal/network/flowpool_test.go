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

// TestAllocateFlowSentinelErrors: admission failures return the
// preallocated per-tier sentinels, matchable with errors.Is, so failed
// probes on the scheduling hot path do not allocate error values.
func TestAllocateFlowSentinelErrors(t *testing.T) {
	cl, err := newTinyFabricCluster()
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFabric(cl, Config{BoxUplinks: 1, RackUplinks: 1, LinkCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	sameRackDst := cl.Rack(0).BoxesOf(units.RAM)[0]
	otherRackDst := cl.Rack(1).BoxesOf(units.RAM)[0]

	// Saturate the source box uplink, then an intra-rack flow fails at
	// the box tier.
	fl, err := f.AllocateFlow(src, sameRackDst, 100, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AllocateFlow(src, sameRackDst, 1, FirstFit); !errors.Is(err, ErrNoBoxUplink) {
		t.Fatalf("saturated box uplink: err = %v, want ErrNoBoxUplink", err)
	}
	f.ReleaseFlow(fl)

	// Saturate the source rack uplink with an inter-rack flow, then a
	// second inter-rack flow from another box of rack 0 fails at the rack
	// tier.
	fl, err = f.AllocateFlow(src, otherRackDst, 100, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	src2 := cl.Rack(0).BoxesOf(units.RAM)[0]
	if _, err := f.AllocateFlow(src2, otherRackDst, 1, FirstFit); !errors.Is(err, ErrNoRackUplink) {
		t.Fatalf("saturated rack uplink: err = %v, want ErrNoRackUplink", err)
	}
	f.ReleaseFlow(fl)
}

// TestReplayRefusals: the replay primitive refuses a recorded path it
// cannot hold — more links than any path the fabric builds (what a damaged
// snapshot decodes to), a failed link, a link without the bandwidth — and
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
	refused := func(name string, bw units.Bandwidth, refs []LinkRef) {
		t.Helper()
		if err := f.Replay(&replayed, bw, refs, true, false); err == nil {
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
	refused("overlong", 1, append(append([]LinkRef(nil), path...), path[:3]...))
	refused("too-wide", f.Config().LinkCapacity+1, path)
	last, err := f.LinkByRef(path[3])
	if err != nil {
		t.Fatal(err)
	}
	f.SetLinkFailed(last, true)
	intra, inter = f.IntraRackFree(), f.InterRackFree()
	refused("failed-link", 20, path) // three links taken before the refusal
	f.SetLinkFailed(last, false)
	if err := f.Replay(&replayed, 20, path, true, false); err != nil {
		t.Fatalf("a valid six-or-fewer link path was refused: %v", err)
	}
	f.Unreserve(&replayed)
}

// newTinyFabricCluster builds a 2-rack cluster for saturation tests.
func newTinyFabricCluster() (*topology.Cluster, error) {
	cfg := topology.DefaultConfig()
	cfg.Racks = 2
	return topology.New(cfg)
}
