package network

import (
	"errors"
	"fmt"
	"testing"

	"risa/internal/topology"
	"risa/internal/units"
)

func threeTierFabric(t testing.TB) (*topology.Cluster, *Fabric) {
	t.Helper()
	cl := testCluster(t)
	cfg := DefaultConfig()
	cfg.RacksPerPod = 6 // 18 racks → 3 pods
	f, err := NewFabric(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl, f
}

func TestThreeTierLayout(t *testing.T) {
	_, f := threeTierFabric(t)
	if !f.cfg.ThreeTier() {
		t.Fatal("fabric should be three-tier")
	}
	if len(f.podUplinks) != 3 {
		t.Errorf("pods = %d, want 3", len(f.podUplinks))
	}
	if f.Pod(0) != 0 || f.Pod(5) != 0 || f.Pod(6) != 1 || f.Pod(17) != 2 {
		t.Error("pod mapping wrong")
	}
	// 3 pods × 16 uplinks × 200 Gb/s.
	if f.InterPodCapacity() != 3*16*200 {
		t.Errorf("inter-pod capacity = %v", f.InterPodCapacity())
	}
	if f.InterPodFree() != f.InterPodCapacity() {
		t.Error("fresh pod tier should be free")
	}
}

func TestTwoTierHasNoPods(t *testing.T) {
	_, f := testFabric(t)
	if f.cfg.ThreeTier() {
		t.Fatal("default fabric is two-tier")
	}
	if len(f.podUplinks) != 0 || f.Pod(17) != 0 {
		t.Error("two-tier fabric is one logical pod with no pod uplinks")
	}
	if f.InterPodCapacity() != 0 || f.InterPodFree() != 0 {
		t.Error("no pod tier expected")
	}
}

func TestIntraPodInterRackFlow(t *testing.T) {
	cl, f := threeTierFabric(t)
	// Racks 0 and 3 share pod 0.
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	dst := cl.Rack(3).BoxesOf(units.RAM)[0]
	fl, err := f.AllocateFlow(src, dst, 10, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if !fl.InterRack() || fl.InterPod() {
		t.Error("flow should be inter-rack but intra-pod")
	}
	c := fl.Class()
	if c != InterRack {
		t.Errorf("class = %d, want InterRack", c)
	}
	if c.LinkTraversals() != 6 {
		t.Errorf("hops = %d, want 6", c.LinkTraversals())
	}
	if c.InterRackSwitchCrossings() != 1 {
		t.Errorf("top-tier crossings = %d, want 1 (the pod switch)", c.InterRackSwitchCrossings())
	}
	if f.InterPodFree() != f.InterPodCapacity() {
		t.Error("intra-pod flow must not use pod uplinks")
	}
	f.ReleaseFlow(fl)
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInterPodFlow(t *testing.T) {
	cl, f := threeTierFabric(t)
	// Racks 0 (pod 0) and 12 (pod 2).
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	dst := cl.Rack(12).BoxesOf(units.RAM)[0]
	fl, err := f.AllocateFlow(src, dst, 10, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if !fl.InterRack() || !fl.InterPod() {
		t.Error("flow should be inter-pod")
	}
	c := fl.Class()
	if c != InterPod {
		t.Errorf("class = %d, want InterPod", c)
	}
	if c.LinkTraversals() != 8 {
		t.Errorf("hops = %d, want 8", c.LinkTraversals())
	}
	if c.RackSwitchCrossings() != 2 || c.InterRackSwitchCrossings() != 3 {
		t.Errorf("rack/top-tier crossings = %d/%d, want 2/3 (2 pod + core)", c.RackSwitchCrossings(), c.InterRackSwitchCrossings())
	}
	if got := len(fl.Links()); got != 6 {
		t.Errorf("shared links = %d, want 6", got)
	}
	// 10 Gb/s on each of two pod uplinks.
	if got := f.InterPodCapacity() - f.InterPodFree(); got != 20 {
		t.Errorf("pod consumption = %v, want 20", got)
	}
	f.ReleaseFlow(fl)
	if f.InterPodFree() != f.InterPodCapacity() {
		t.Error("release did not restore pod bandwidth")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestPodUplinkFailure: with every pod-0 uplink full, an inter-pod flow
// out of pod 0 fails at the pod tier, under both policies, while flows
// inside the pod still place.
func TestPodUplinkFailure(t *testing.T) {
	cl, f := threeTierFabric(t)
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	dst := cl.Rack(12).BoxesOf(units.RAM)[0]
	for i := range f.podUplinks[0] {
		f.take(&f.podUplinks[0][i], units.LinkCapacity)
	}
	for _, policy := range []Policy{FirstFit, MaxAvail} {
		if _, err := f.AllocateFlow(src, dst, 1, policy); !errors.Is(err, ErrNoPodUplink) {
			t.Errorf("%v: inter-pod flow over full pod 0 uplinks: err = %v, want %v", policy, err, ErrNoPodUplink)
		}
	}
	// Intra-pod flows are unaffected.
	if _, err := f.AllocateFlow(src, cl.Rack(3).BoxesOf(units.RAM)[0], 1, FirstFit); err != nil {
		t.Errorf("intra-pod flow should survive: %v", err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestThreeTierUnevenPods(t *testing.T) {
	cl := testCluster(t)
	cfg := DefaultConfig()
	cfg.RacksPerPod = 5 // 18 racks → pods of 5,5,5,3
	f, err := NewFabric(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.podUplinks) != 4 {
		t.Errorf("pods = %d, want 4", len(f.podUplinks))
	}
	if f.Pod(17) != 3 {
		t.Errorf("rack 17 pod = %d, want 3", f.Pod(17))
	}
	// Flows into the short pod work.
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	dst := cl.Rack(16).BoxesOf(units.RAM)[0]
	fl, err := f.AllocateFlow(src, dst, 5, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if !fl.InterPod() {
		t.Error("flow crosses pods")
	}
	f.ReleaseFlow(fl)
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestLinkStringNamesEveryTier pins Link.String on an inter-pod path,
// which crosses all three tiers. A pod uplink has no rack (-1) and is
// addressed by its pod, so it must not print as a rack uplink of rack -1.
func TestLinkStringNamesEveryTier(t *testing.T) {
	cl, f := threeTierFabric(t)
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	dst := cl.Rack(12).BoxesOf(units.RAM)[0]
	fl, err := f.AllocateFlow(src, dst, 10, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprintf("box-uplink r0/b%d/#0", src.Index()),
		"rack-uplink r0/#0",
		"pod-uplink p0/#0",
		"pod-uplink p2/#0",
		"rack-uplink r12/#0",
		fmt.Sprintf("box-uplink r12/b%d/#0", dst.Index()),
	}
	for i, l := range fl.Links() {
		if got := l.String(); got != want[i] {
			t.Errorf("link %d = %q, want %q", i, got, want[i])
		}
	}
}
