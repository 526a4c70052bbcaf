package topology

import (
	"testing"

	"risa/internal/units"
)

func TestSetBoxFailedHidesCapacity(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	box := c.Rack(0).BoxesOf(units.CPU)[0]
	total := c.TotalFree(units.CPU)
	c.SetBoxFailed(box, true)
	if !box.Failed() {
		t.Fatal("box should report failed")
	}
	if box.Free() != 0 {
		t.Errorf("failed box Free = %d, want 0", box.Free())
	}
	if got := c.TotalFree(units.CPU); got != total-box.Capacity() {
		t.Errorf("cluster free = %d, want %d", got, total-box.Capacity())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Allocation into the failed box is refused.
	if _, err := c.Allocate(box, 8); err == nil {
		t.Error("failed box must refuse allocations")
	}
	// Restore brings the capacity back.
	c.SetBoxFailed(box, false)
	if c.TotalFree(units.CPU) != total {
		t.Error("restore should return the capacity")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSetBoxFailedIdempotent(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	box := c.Rack(0).BoxesOf(units.RAM)[0]
	total := c.TotalFree(units.RAM)
	c.SetBoxFailed(box, true)
	c.SetBoxFailed(box, true) // no double subtraction
	if got := c.TotalFree(units.RAM); got != total-box.Capacity() {
		t.Errorf("double-fail corrupted totals: %d", got)
	}
	c.SetBoxFailed(box, false)
	c.SetBoxFailed(box, false)
	if c.TotalFree(units.RAM) != total {
		t.Error("double-restore corrupted totals")
	}
}

func TestReleaseIntoFailedBox(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	box := c.Rack(0).BoxesOf(units.Storage)[0]
	p, err := c.Allocate(box, 128)
	if err != nil {
		t.Fatal(err)
	}
	totalAfterAlloc := c.TotalFree(units.Storage)
	c.SetBoxFailed(box, true)
	// The VM departs while the box is down: release succeeds, but the
	// freed capacity stays hidden until restore.
	c.Release(p)
	if got := c.TotalFree(units.Storage); got != totalAfterAlloc-(box.Capacity()-128) {
		t.Errorf("release onto failed box leaked into totals: %d", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
	c.SetBoxFailed(box, false)
	if box.Free() != box.Capacity() {
		t.Error("restored box should be fully free")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestRepairReseedsIndexTiers pins the repair-path contract behind the
// fault subsystem: healing a box must leave the cluster candidate bound
// tightened to the rack's true maximum, not merely a self-repairing upper
// bound. Before the re-seed fix, healing a box after its rack's best box
// had shrunk left the bound slack (stuck at the pre-failure maximum).
func TestRepairReseedsIndexTiers(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	rack := c.Rack(0)
	k := units.CPU
	b0, b1 := rack.BoxesOf(k)[0], rack.BoxesOf(k)[1]
	// Shrink the second box, then the first (the rack's earliest-max box),
	// leaving the candidate bound stale at 512.
	if _, err := c.Allocate(b1, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate(b0, 200); err != nil {
		t.Fatal(err)
	}
	c.SetBoxFailed(b0, true)
	c.SetBoxFailed(b0, false)

	wantMax, wantBest := b1.Free(), b1 // 412 > the healed box's 312
	if max, best := rack.MaxFree(k); max != wantMax || best != wantBest {
		t.Errorf("MaxFree after repair = (%d, %v), want (%d, %v)", max, best, wantMax, wantBest)
	}
	if got := c.cidx[k].leaf(0); got != wantMax {
		t.Errorf("cluster candidate bound %d after repair, want exact %d", got, wantMax)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestReleaseTightensCandidateBound pins the release side of the same
// contract: every increase sets the rack's bound to its exact maximum,
// even when earlier decreases had left the bound slack. A release that
// only raised the bound would leave it at the pristine 512 here.
func TestReleaseTightensCandidateBound(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	rack := c.Rack(0)
	k := units.CPU
	b0, b1 := rack.BoxesOf(k)[0], rack.BoxesOf(k)[1]
	if _, err := c.Allocate(b1, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate(b0, 200); err != nil {
		t.Fatal(err)
	}
	p, err := c.Allocate(b0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.cidx[k].leaf(0); got != b0.Capacity() {
		t.Fatalf("candidate bound %d before the release, want the stale %d", got, b0.Capacity())
	}
	c.Release(p)
	if got, want := c.cidx[k].leaf(0), units.Amount(412); got != want {
		t.Errorf("candidate bound %d after the release, want exact %d", got, want)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestReleaseIntoFailedThenHealedBox covers the interaction of the
// Release failed-box skip path with repair, in both orders: a VM
// departing while its box is down (the freed capacity must surface at
// repair, with the candidate bound exact), and a VM departing after its box
// already recovered (a plain healthy-path release).
func TestReleaseIntoFailedThenHealedBox(t *testing.T) {
	k := units.CPU
	for _, order := range []string{"release-then-heal", "heal-then-release"} {
		c := mustCluster(t, DefaultConfig())
		total := c.TotalFree(k)
		rack := c.Rack(0)
		box := rack.BoxesOf(k)[0]
		p, err := c.Allocate(box, 128)
		if err != nil {
			t.Fatal(err)
		}
		c.SetBoxFailed(box, true)
		if order == "release-then-heal" {
			c.Release(p)
			c.SetBoxFailed(box, false)
		} else {
			c.SetBoxFailed(box, false)
			c.Release(p)
		}
		if got := c.TotalFree(k); got != total {
			t.Errorf("%s: cluster free = %d, want pristine %d", order, got, total)
		}
		if got := rack.Free(k); got != 2*box.Capacity() {
			t.Errorf("%s: rack free = %d, want %d", order, got, 2*box.Capacity())
		}
		if max, best := rack.MaxFree(k); max != box.Capacity() || best != box {
			t.Errorf("%s: MaxFree = (%d, %v), want (%d, %v)", order, max, best, box.Capacity(), box)
		}
		if got := c.cidx[k].leaf(0); got != box.Capacity() {
			t.Errorf("%s: candidate bound %d, want exact %d", order, got, box.Capacity())
		}
		// The restored capacity must be findable through the query tier.
		if got := c.NextRackWith(k, box.Capacity(), 0); got != 0 {
			t.Errorf("%s: NextRackWith full box = rack %d, want 0", order, got)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", order, err)
		}
	}
}

func TestFailedBoxExcludedFromRackViews(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	rack := c.Rack(0)
	for _, b := range rack.BoxesOf(units.RAM) {
		c.SetBoxFailed(b, true)
	}
	if max, _ := rack.MaxFree(units.RAM); max != 0 {
		t.Errorf("rack max free = %d with all RAM failed", max)
	}
	if rack.Free(units.RAM) != 0 {
		t.Error("rack free should be zero")
	}
	if rack.FitsWholeVM(units.Vec(1, 1, 1)) {
		t.Error("rack without RAM cannot fit a VM")
	}
	// Other racks are unaffected.
	if !c.Rack(1).FitsWholeVM(units.Vec(1, 1, 1)) {
		t.Error("healthy rack should still fit")
	}
}

func TestUsedSurvivesFailure(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	box := c.Rack(0).BoxesOf(units.CPU)[0]
	if _, err := c.Allocate(box, 100); err != nil {
		t.Fatal(err)
	}
	c.SetBoxFailed(box, true)
	if box.Capacity()-box.free != 100 {
		t.Errorf("used = %d after failure, want 100", box.Capacity()-box.free)
	}
}

func TestStrandedMetric(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	ref := units.Vec(16, 16, 128)
	// Fresh cluster: nothing stranded.
	if got := c.Stranded(ref); !got.IsZero() {
		t.Errorf("fresh cluster stranded = %v", got)
	}
	// Exhaust rack 0's RAM: its free CPU and storage become stranded for
	// the reference VM.
	for _, b := range c.Rack(0).BoxesOf(units.RAM) {
		if _, err := c.Allocate(b, b.Free()); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Stranded(ref)
	if got[units.CPU] != 2*512 {
		t.Errorf("stranded CPU = %d, want %d", got[units.CPU], 2*512)
	}
	if got[units.Storage] != 2*8192 {
		t.Errorf("stranded STO = %d, want %d", got[units.Storage], 2*8192)
	}
	if got[units.RAM] != 0 {
		t.Errorf("stranded RAM = %d, want 0 (none free there)", got[units.RAM])
	}
	frac := c.StrandedFraction(ref)
	wantCPU := float64(2*512) / float64(18*2*512)
	if frac[units.CPU] != wantCPU {
		t.Errorf("stranded CPU fraction = %g, want %g", frac[units.CPU], wantCPU)
	}
}

func TestStrandedCountsFailedRacks(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	ref := units.Vec(8, 16, 128)
	// Fail rack 3's CPU boxes: the rack cannot host the reference VM, but
	// its failed boxes contribute no free capacity either — only the
	// healthy RAM/storage there is stranded.
	for _, b := range c.Rack(3).BoxesOf(units.CPU) {
		c.SetBoxFailed(b, true)
	}
	got := c.Stranded(ref)
	if got[units.CPU] != 0 {
		t.Errorf("failed CPU should not count as stranded free: %d", got[units.CPU])
	}
	if got[units.RAM] != 2*512 || got[units.Storage] != 2*8192 {
		t.Errorf("healthy complements should be stranded: %v", got)
	}
}

func TestStrandedFractionEmptyCluster(t *testing.T) {
	cfg := DefaultConfig()
	c := mustCluster(t, cfg)
	// Exhaust everything: fractions must be 0 (no free capacity at all).
	for _, b := range c.Boxes() {
		if _, err := c.Allocate(b, b.Free()); err != nil {
			t.Fatal(err)
		}
	}
	frac := c.StrandedFraction(units.Vec(1, 1, 1))
	for _, k := range units.Resources() {
		if frac[k] != 0 {
			t.Errorf("fraction %v = %g with nothing free", k, frac[k])
		}
	}
}
