package network

import (
	"testing"

	"risa/internal/units"
)

func TestSetLinkFailedExcludesFromAllocation(t *testing.T) {
	cl, f := testFabric(t)
	rack := cl.Rack(0)
	src := rack.BoxesOf(units.CPU)[0]
	dst := rack.BoxesOf(units.RAM)[0]

	// Fail src's first uplink: the next first-fit flow must use #1.
	intraFree := f.IntraRackFree()
	l0 := &f.boxUplinks[0][src.Index()][0]
	f.SetLinkFailed(l0, true)
	if !l0.Failed() || l0.Free() != 0 {
		t.Fatal("failed link should hide its bandwidth")
	}
	if f.IntraRackFree() != intraFree-l0.cap {
		t.Errorf("aggregate free = %v", f.IntraRackFree())
	}
	fl, err := f.AllocateFlow(src, dst, 10, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Links()[0].Index() != 1 {
		t.Errorf("first-fit used link #%d, want #1 (skipping failed #0)", fl.Links()[0].Index())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
	f.SetLinkFailed(l0, false)
	if f.IntraRackFree() != intraFree-2*10 {
		t.Errorf("restore wrong: %v", f.IntraRackFree())
	}
}

func TestSetLinkFailedIdempotent(t *testing.T) {
	_, f := testFabric(t)
	l := &f.rackUplinks[0][0]
	interFree := f.InterRackFree()
	f.SetLinkFailed(l, true)
	f.SetLinkFailed(l, true)
	if f.InterRackFree() != interFree-l.cap {
		t.Error("double-fail corrupted aggregates")
	}
	f.SetLinkFailed(l, false)
	f.SetLinkFailed(l, false)
	if f.InterRackFree() != interFree {
		t.Error("double-restore corrupted aggregates")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestReleaseOntoFailedLink(t *testing.T) {
	cl, f := testFabric(t)
	rack := cl.Rack(0)
	src := rack.BoxesOf(units.CPU)[0]
	dst := rack.BoxesOf(units.RAM)[0]
	fl, err := f.AllocateFlow(src, dst, 50, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	carrying := fl.Links()[0]
	f.SetLinkFailed(carrying, true)
	// The flow tears down while the link is failed: no panic, and the
	// freed bandwidth stays hidden until restore.
	f.ReleaseFlow(fl)
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
	f.SetLinkFailed(carrying, false)
	if carrying.Free() != carrying.cap {
		t.Error("restored link should be fully free")
	}
	if f.IntraRackFree() != f.IntraRackCapacity() {
		t.Error("fabric should be pristine after restore")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAllUplinksFailedBlocksFlows(t *testing.T) {
	cl, f := testFabric(t)
	rack := cl.Rack(0)
	src := rack.BoxesOf(units.CPU)[0]
	dst := rack.BoxesOf(units.RAM)[0]
	for i := range f.boxUplinks[0][src.Index()] {
		f.SetLinkFailed(&f.boxUplinks[0][src.Index()][i], true)
	}
	if _, err := f.AllocateFlow(src, dst, 1, FirstFit); err == nil {
		t.Error("flow through fully failed box should be refused")
	}
	if _, err := f.AllocateFlow(src, dst, 1, MaxAvail); err == nil {
		t.Error("max-avail should refuse too")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRackUplinkFailureForcesFailure(t *testing.T) {
	cl, f := testFabric(t)
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	dst := cl.Rack(1).BoxesOf(units.RAM)[0]
	for i := range f.rackUplinks[0] {
		f.SetLinkFailed(&f.rackUplinks[0][i], true)
	}
	if _, err := f.AllocateFlow(src, dst, 1, FirstFit); err == nil {
		t.Error("inter-rack flow without rack uplinks should fail")
	}
	// Intra-rack flows in rack 0 are unaffected.
	if _, err := f.AllocateFlow(src, cl.Rack(0).BoxesOf(units.RAM)[0], 1, FirstFit); err != nil {
		t.Errorf("intra-rack flow should survive rack-uplink failure: %v", err)
	}
}
