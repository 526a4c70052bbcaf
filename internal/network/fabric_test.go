package network

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"risa/internal/topology"
	"risa/internal/units"
)

func testCluster(t testing.TB) *topology.Cluster {
	t.Helper()
	cl, err := topology.New(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func testFabric(t testing.TB) (*topology.Cluster, *Fabric) {
	t.Helper()
	cl := testCluster(t)
	f, err := NewFabric(cl, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return cl, f
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.BoxUplinks != 16 || RackUplinks != 16 || units.LinkCapacity != 200 {
		t.Errorf("DefaultConfig = %+v, %d rack uplinks at %v", cfg, RackUplinks, units.LinkCapacity)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{BoxUplinks: 0},
		{BoxUplinks: -3},
		{BoxUplinks: 8, RacksPerPod: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

func TestTierPolicyStrings(t *testing.T) {
	if BoxUplink.String() != "box-uplink" || RackUplink.String() != "rack-uplink" {
		t.Error("tier names wrong")
	}
	if Tier(9).String() == "" {
		t.Error("unknown tier should still render")
	}
	if FirstFit.String() != "first-fit" || MaxAvail.String() != "max-avail" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should still render")
	}
}

func TestFabricCapacities(t *testing.T) {
	_, f := testFabric(t)
	// 18 racks x 6 boxes x 8 uplinks x 200 Gb/s.
	wantIntra := units.Bandwidth(18 * 6 * 16 * 200)
	if f.IntraRackCapacity() != wantIntra {
		t.Errorf("intra capacity = %v, want %v", f.IntraRackCapacity(), wantIntra)
	}
	// 18 racks x 16 uplinks x 200 Gb/s.
	wantInter := units.Bandwidth(18 * 16 * 200)
	if f.InterRackCapacity() != wantInter {
		t.Errorf("inter capacity = %v, want %v", f.InterRackCapacity(), wantInter)
	}
	if f.IntraRackFree() != wantIntra || f.InterRackFree() != wantInter {
		t.Error("fresh fabric should be fully free")
	}
	if f.IntraRackUtilization() != 0 || f.InterRackUtilization() != 0 {
		t.Error("fresh fabric utilization should be zero")
	}
	if f.RackIntraFree(0) != units.Bandwidth(6*16*200) {
		t.Errorf("rack intra free = %v", f.RackIntraFree(0))
	}
}

func TestIntraRackFlow(t *testing.T) {
	cl, f := testFabric(t)
	rack := cl.Rack(0)
	src := rack.BoxesOf(units.CPU)[0]
	dst := rack.BoxesOf(units.RAM)[0]
	fl, err := f.AllocateFlow(src, dst, 20, FirstFit)
	if err != nil {
		t.Fatalf("AllocateFlow: %v", err)
	}
	if fl.InterRack() {
		t.Error("same-rack flow should be intra-rack")
	}
	if got := len(fl.Links()); got != 2 {
		t.Errorf("intra flow reserves %d shared links, want 2", got)
	}
	c := fl.Class()
	if c != IntraRack {
		t.Errorf("class = %d, want IntraRack", c)
	}
	if c.LinkTraversals() != 4 {
		t.Errorf("intra hops = %d, want 4", c.LinkTraversals())
	}
	if c.BoxSwitchCrossings() != 2 || c.RackSwitchCrossings() != 1 || c.InterRackSwitchCrossings() != 0 {
		t.Error("intra switch crossings wrong")
	}
	if f.InterRackFree() != f.InterRackCapacity() {
		t.Error("intra flow must not consume inter-rack bandwidth")
	}
	if got := f.IntraRackCapacity() - f.IntraRackFree(); got != 40 {
		t.Errorf("intra consumption = %v, want 40 (20 on each of 2 links)", got)
	}
	f.ReleaseFlow(fl)
	if f.IntraRackFree() != f.IntraRackCapacity() {
		t.Error("release did not restore intra bandwidth")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInterRackFlow(t *testing.T) {
	cl, f := testFabric(t)
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	dst := cl.Rack(5).BoxesOf(units.RAM)[1]
	fl, err := f.AllocateFlow(src, dst, 15, FirstFit)
	if err != nil {
		t.Fatalf("AllocateFlow: %v", err)
	}
	if !fl.InterRack() {
		t.Error("cross-rack flow should be inter-rack")
	}
	if got := len(fl.Links()); got != 4 {
		t.Errorf("inter flow reserves %d shared links, want 4", got)
	}
	c := fl.Class()
	if c != InterRack {
		t.Errorf("class = %d, want InterRack", c)
	}
	if c.LinkTraversals() != 6 {
		t.Errorf("inter hops = %d, want 6", c.LinkTraversals())
	}
	if c.BoxSwitchCrossings() != 2 || c.RackSwitchCrossings() != 2 || c.InterRackSwitchCrossings() != 1 {
		t.Error("inter switch crossings wrong")
	}
	if got := f.InterRackCapacity() - f.InterRackFree(); got != 30 {
		t.Errorf("inter consumption = %v, want 30", got)
	}
	f.ReleaseFlow(fl)
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestZeroBandwidthFlow(t *testing.T) {
	cl, f := testFabric(t)
	src := cl.Rack(0).BoxesOf(units.RAM)[0]
	dst := cl.Rack(1).BoxesOf(units.Storage)[0]
	fl, err := f.AllocateFlow(src, dst, 0, FirstFit)
	if err != nil {
		t.Fatalf("zero-bw flow: %v", err)
	}
	if len(fl.Links()) != 0 {
		t.Error("zero-bw flow should reserve nothing")
	}
	if !fl.InterRack() {
		t.Error("path shape should still be recorded")
	}
	f.ReleaseFlow(fl) // must be safe
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNegativeBandwidthRejected(t *testing.T) {
	cl, f := testFabric(t)
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	if _, err := f.AllocateFlow(src, src, -1, FirstFit); err == nil {
		t.Error("negative bandwidth should fail")
	}
}

func TestFirstFitPacksFirstLink(t *testing.T) {
	cl, f := testFabric(t)
	rack := cl.Rack(0)
	src := rack.BoxesOf(units.CPU)[0]
	dst := rack.BoxesOf(units.RAM)[0]
	var flows []*Flow
	// Two 100 Gb/s flows fill uplink #0 on both boxes before touching #1.
	for i := 0; i < 2; i++ {
		fl, err := f.AllocateFlow(src, dst, 100, FirstFit)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, fl)
	}
	for _, fl := range flows {
		for _, l := range fl.Links() {
			if l.Index() != 0 {
				t.Errorf("first-fit used link #%d before filling #0", l.Index())
			}
		}
	}
	// Third flow must move to uplink #1.
	fl, err := f.AllocateFlow(src, dst, 100, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range fl.Links() {
		if l.Index() != 1 {
			t.Errorf("expected spill to link #1, got #%d", l.Index())
		}
	}
}

func TestMaxAvailSpreadsLoad(t *testing.T) {
	cl, f := testFabric(t)
	rack := cl.Rack(0)
	src := rack.BoxesOf(units.CPU)[0]
	dst := rack.BoxesOf(units.RAM)[0]
	// First flow leaves link #0 at 150 free; the next MaxAvail flow must
	// prefer one of the untouched links (200 free).
	if _, err := f.AllocateFlow(src, dst, 50, MaxAvail); err != nil {
		t.Fatal(err)
	}
	fl, err := f.AllocateFlow(src, dst, 50, MaxAvail)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range fl.Links() {
		if l.Free() != 150 {
			t.Errorf("max-avail should land on a fresh link, got %v with %v free", l, l.Free())
		}
	}
}

func TestAllocationFailureRollsBack(t *testing.T) {
	cl, f := testFabric(t)
	rack := cl.Rack(0)
	src := rack.BoxesOf(units.CPU)[0]
	dst := rack.BoxesOf(units.RAM)[0]
	// Saturate every uplink of dst so the second hop must fail.
	other := rack.BoxesOf(units.Storage)[0]
	cfg := f.cfg
	for i := 0; i < cfg.BoxUplinks; i++ {
		if _, err := f.AllocateFlow(dst, other, 200, FirstFit); err != nil {
			// dst and other each have 8 uplinks; 8 flows of 200 fill dst's.
			t.Fatal(err)
		}
	}
	freeBefore := f.IntraRackFree()
	if _, err := f.AllocateFlow(src, dst, 10, FirstFit); err == nil {
		t.Fatal("flow into saturated box should fail")
	}
	if f.IntraRackFree() != freeBefore {
		t.Errorf("failed allocation leaked bandwidth: %v -> %v", freeBefore, f.IntraRackFree())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBoxUplinkFree(t *testing.T) {
	cl, f := testFabric(t)
	rack := cl.Rack(0)
	box := rack.BoxesOf(units.CPU)[0]
	if got := f.BoxUplinkFree(box); got != 16*200 {
		t.Errorf("fresh BoxUplinkFree = %v", got)
	}
	dst := rack.BoxesOf(units.RAM)[0]
	if _, err := f.AllocateFlow(box, dst, 30, FirstFit); err != nil {
		t.Fatal(err)
	}
	if got := f.BoxUplinkFree(box); got != 16*200-30 {
		t.Errorf("BoxUplinkFree after flow = %v", got)
	}
	fl, err := f.AllocateFlow(box, dst, 40, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.BoxUplinkFree(box); got != 16*200-70 {
		t.Errorf("BoxUplinkFree after a second flow = %v", got)
	}
	f.ReleaseFlow(fl)
	if got := f.BoxUplinkFree(box); got != 16*200-30 {
		t.Errorf("BoxUplinkFree after releasing it = %v", got)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestLinkSize pins the link's size. Links sit by value in per-rack slabs
// and pick walks a whole 16-link group on every hop of every probe, so a
// group's bytes are what a placement reads: a 16-link group spans six
// 64-byte lines at 24 bytes a link, eight at 32, where the 56-byte
// pointer-reached records cost a line and a pointer load each. A field
// added here widens every group.
func TestLinkSize(t *testing.T) {
	if got := unsafe.Sizeof(Link{}); got > 24 {
		t.Fatalf("Link is %d bytes, want <= 24", got)
	}
}

func TestRackIntraFreeTracksPerRack(t *testing.T) {
	cl, f := testFabric(t)
	r0Free := f.RackIntraFree(0)
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	dst := cl.Rack(0).BoxesOf(units.RAM)[0]
	if _, err := f.AllocateFlow(src, dst, 25, FirstFit); err != nil {
		t.Fatal(err)
	}
	if f.RackIntraFree(0) != r0Free-50 {
		t.Errorf("rack 0 intra free = %v, want %v", f.RackIntraFree(0), r0Free-50)
	}
	if f.RackIntraFree(1) != r0Free {
		t.Error("rack 1 must be untouched")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	cl, f := testFabric(t)
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	dst := cl.Rack(0).BoxesOf(units.RAM)[0]
	fl, err := f.AllocateFlow(src, dst, 200, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	f.ReleaseFlow(fl)
	// After release the flow's links are cleared, so a second release is a
	// harmless no-op rather than corruption.
	f.ReleaseFlow(fl)
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestReleaseNilFlow(t *testing.T) {
	_, f := testFabric(t)
	f.ReleaseFlow(nil)
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Property: random flow churn preserves invariants and full release
// restores pristine state.
func TestRandomFlowChurnProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := testCluster(t)
		fab, err := NewFabric(cl, DefaultConfig())
		if err != nil {
			return false
		}
		boxes := cl.Boxes()
		var live []*Flow
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(5); {
			case len(live) > 0 && r <= 1:
				i := rng.Intn(len(live))
				fab.ReleaseFlow(live[i])
				live = append(live[:i], live[i+1:]...)
			default:
				src := boxes[rng.Intn(len(boxes))]
				dst := boxes[rng.Intn(len(boxes))]
				bw := units.Bandwidth(rng.Int63n(250) + 1)
				policy := Policy(rng.Intn(2))
				if fl, err := fab.AllocateFlow(src, dst, bw, policy); err == nil {
					live = append(live, fl)
				}
			}
			if err := fab.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		for _, fl := range live {
			fab.ReleaseFlow(fl)
		}
		return fab.IntraRackFree() == fab.IntraRackCapacity() &&
			fab.InterRackFree() == fab.InterRackCapacity() &&
			fab.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: a flow larger than the link capacity is always rejected.
func TestOversizeFlowAlwaysRejected(t *testing.T) {
	cl, f := testFabric(t)
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	dst := cl.Rack(1).BoxesOf(units.RAM)[0]
	if _, err := f.AllocateFlow(src, dst, 201, FirstFit); err == nil {
		t.Error("201 Gb/s flow must not fit a 200 Gb/s link")
	}
	if _, err := f.AllocateFlow(src, dst, 201, MaxAvail); err == nil {
		t.Error("201 Gb/s flow must not fit under MaxAvail either")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestLinkAccessors(t *testing.T) {
	cl, f := testFabric(t)
	src := cl.Rack(2).BoxesOf(units.CPU)[1]
	dst := cl.Rack(3).BoxesOf(units.RAM)[0]
	fl, err := f.AllocateFlow(src, dst, 10, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	links := fl.Links()
	if links[0].Tier() != BoxUplink || links[0].Rack() != 2 || links[0].Box() != src.Index() {
		t.Errorf("first link misaddressed: %v", links[0])
	}
	if links[1].Tier() != RackUplink || links[1].Rack() != 2 || links[1].Box() != -1 {
		t.Errorf("second link misaddressed: %v", links[1])
	}
	if links[2].Tier() != RackUplink || links[2].Rack() != 3 {
		t.Errorf("third link misaddressed: %v", links[2])
	}
	if links[3].Tier() != BoxUplink || links[3].Rack() != 3 {
		t.Errorf("fourth link misaddressed: %v", links[3])
	}
	if links[0].Free() != 190 {
		t.Errorf("link bookkeeping: free=%v", links[0].Free())
	}
	if fl.BW() != 10 {
		t.Errorf("BW = %v", fl.BW())
	}
}
