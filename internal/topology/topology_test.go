package topology

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"risa/internal/units"
)

func mustCluster(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Racks != 18 {
		t.Errorf("cluster size = %d racks, want 18", cfg.Racks)
	}
	if cfg.BoxesPerRack() != 6 {
		t.Errorf("rack size = %d boxes, want 6", cfg.BoxesPerRack())
	}
	if cfg.BricksPerBox != 8 {
		t.Errorf("box size = %d bricks, want 8", cfg.BricksPerBox)
	}
	if cfg.UnitsPerBrick != 16 {
		t.Errorf("brick size = %d units, want 16", cfg.UnitsPerBrick)
	}
	// Derived capacities: 8 bricks x 16 units = 128 units per box.
	if got := cfg.BoxCapacity(units.CPU); got != 512 {
		t.Errorf("CPU box = %d cores, want 512", got)
	}
	if got := cfg.BoxCapacity(units.RAM); got != 512 {
		t.Errorf("RAM box = %d GB, want 512", got)
	}
	if got := cfg.BoxCapacity(units.Storage); got != 8192 {
		t.Errorf("STO box = %d GB, want 8192", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Racks = 0 },
		func(c *Config) { c.CPUBoxes = 0 },
		func(c *Config) { c.RAMBoxes = -1 },
		func(c *Config) { c.STOBoxes = 0 },
		func(c *Config) { c.BricksPerBox = 0 },
		func(c *Config) { c.UnitsPerBrick = 0 },
		func(c *Config) { c.Units.CPUUnitCores = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New should reject mutation %d", i)
		}
	}
}

func TestValidateRejectsKindsWithZeroBoxesClusterWide(t *testing.T) {
	// A kind with zero boxes cluster-wide makes every workload
	// unschedulable; the scale sweep's config construction makes this an
	// easy mistake, so Validate must name the offending kind.
	for _, k := range units.Resources() {
		cfg := DefaultConfig()
		switch k {
		case units.CPU:
			cfg.CPUBoxes = 0
		case units.RAM:
			cfg.RAMBoxes = 0
		case units.Storage:
			cfg.STOBoxes = 0
		}
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%v: config with zero boxes cluster-wide validated", k)
		}
		if want := fmt.Sprintf("%v has no boxes cluster-wide", k); !strings.Contains(err.Error(), want) {
			t.Errorf("%v: error %q does not name the kind (want substring %q)", k, err, want)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%v: New accepted a kind with zero boxes cluster-wide", k)
		}
	}
}

func TestBoxKindCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BoxKindCount(invalid) should panic")
		}
	}()
	DefaultConfig().BoxKindCount(units.Resource(9))
}

func TestNewLaysOutKindMajor(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	if c.NumRacks() != 18 {
		t.Fatalf("racks = %d", c.NumRacks())
	}
	rack := c.Rack(0)
	wantKinds := []units.Resource{
		units.CPU, units.CPU, units.RAM, units.RAM, units.Storage, units.Storage,
	}
	boxes := rack.Boxes()
	if len(boxes) != len(wantKinds) {
		t.Fatalf("rack has %d boxes, want %d", len(boxes), len(wantKinds))
	}
	for i, b := range boxes {
		if b.Kind() != wantKinds[i] {
			t.Errorf("box %d kind = %v, want %v", i, b.Kind(), wantKinds[i])
		}
		if b.Index() != i {
			t.Errorf("box %d reports index %d", i, b.Index())
		}
		if b.Rack() != 0 {
			t.Errorf("box %d reports rack %d", i, b.Rack())
		}
	}
	if got := len(rack.BoxesOf(units.CPU)); got != 2 {
		t.Errorf("CPU boxes per rack = %d, want 2", got)
	}
	for ki, b := range rack.BoxesOf(units.RAM) {
		if b.KindIndex() != ki {
			t.Errorf("RAM box kind index = %d, want %d", b.KindIndex(), ki)
		}
	}
	if got := len(c.Boxes()); got != 18*6 {
		t.Errorf("cluster has %d boxes, want %d", got, 18*6)
	}
}

func TestAllocateReleaseRoundTrip(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	box := c.Rack(3).BoxesOf(units.RAM)[1]
	before := box.Free()
	p, err := c.Allocate(box, 100)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if box.Free() != before-100 {
		t.Errorf("box free = %d, want %d", box.Free(), before-100)
	}
	if c.TotalFree(units.RAM) != c.TotalCapacity(units.RAM)-100 {
		t.Errorf("cluster free not decremented")
	}
	if box.Used() != 100 {
		t.Errorf("Used = %d, want 100", box.Used())
	}
	c.Release(p)
	if box.Free() != before {
		t.Errorf("release did not restore free: %d vs %d", box.Free(), before)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestAllocateSpansBricksFirstFit(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	box := c.Rack(0).BoxesOf(units.CPU)[0]
	// One brick holds 16 units x 4 cores = 64 cores. Allocating 100 cores
	// must span bricks 0 and 1.
	p, err := c.Allocate(box, 100)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if len(p.Shares) != 2 {
		t.Fatalf("placement spans %d bricks, want 2 (%v)", len(p.Shares), p.Shares)
	}
	if p.Shares[0] != (BrickShare{Brick: 0, Amount: 64}) {
		t.Errorf("first share = %+v", p.Shares[0])
	}
	if p.Shares[1] != (BrickShare{Brick: 1, Amount: 36}) {
		t.Errorf("second share = %+v", p.Shares[1])
	}
	if box.Brick(0).Free() != 0 || box.Brick(1).Free() != 28 {
		t.Errorf("brick frees = %d,%d; want 0,28", box.Brick(0).Free(), box.Brick(1).Free())
	}
	if box.Brick(0).Capacity() != 64 {
		t.Errorf("brick capacity = %d, want 64", box.Brick(0).Capacity())
	}
}

func TestAllocateErrors(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	box := c.Rack(0).BoxesOf(units.CPU)[0]
	if _, err := c.Allocate(box, 0); err == nil {
		t.Error("zero allocation should fail")
	}
	if _, err := c.Allocate(box, -4); err == nil {
		t.Error("negative allocation should fail")
	}
	if _, err := c.Allocate(box, box.Capacity()+1); err == nil {
		t.Error("over-capacity allocation should fail")
	}
	// Failures must not disturb state.
	if box.Free() != box.Capacity() {
		t.Errorf("failed allocations changed free to %d", box.Free())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestReleaseZeroPlacementIsNoop(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	c.Release(Placement{})
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	box := c.Rack(0).BoxesOf(units.CPU)[0]
	p, err := c.Allocate(box, box.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	c.Release(p)
	defer func() {
		if recover() == nil {
			t.Error("double release should panic")
		}
	}()
	c.Release(p)
}

func TestReleaseWrongBoxPanics(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	boxA := c.Rack(0).BoxesOf(units.CPU)[0]
	boxB := c.Rack(0).BoxesOf(units.CPU)[1]
	p, err := c.Allocate(boxA, 8)
	if err != nil {
		t.Fatal(err)
	}
	p.Box = boxB // corrupt
	defer func() {
		if recover() == nil {
			t.Error("cross-box release should panic")
		}
	}()
	boxA.release(p)
}

func TestMaxFreeAndFitsWholeVM(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	rack := c.Rack(0)
	max, best := rack.MaxFree(units.CPU)
	if max != 512 || best == nil {
		t.Fatalf("MaxFree = %d,%v", max, best)
	}
	// Consume most of one CPU box; max free should follow the other box.
	if _, err := c.Allocate(rack.BoxesOf(units.CPU)[0], 500); err != nil {
		t.Fatal(err)
	}
	max, best = rack.MaxFree(units.CPU)
	if max != 512 || best.KindIndex() != 1 {
		t.Errorf("MaxFree after fill = %d, box %v", max, best)
	}
	if !rack.FitsWholeVM(units.Vec(512, 512, 8192)) {
		t.Error("rack should fit a full-box VM")
	}
	if rack.FitsWholeVM(units.Vec(513, 1, 1)) {
		t.Error("rack cannot fit 513 cores in one box")
	}
	// Zero components are ignored.
	if !rack.FitsWholeVM(units.Vec(0, 0, 0)) {
		t.Error("zero request fits anywhere")
	}
}

func TestRackFree(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	rack := c.Rack(2)
	if got := rack.Free(units.Storage); got != 2*8192 {
		t.Errorf("rack storage free = %d, want %d", got, 2*8192)
	}
	if _, err := c.Allocate(rack.BoxesOf(units.Storage)[0], 128); err != nil {
		t.Fatal(err)
	}
	if got := rack.Free(units.Storage); got != 2*8192-128 {
		t.Errorf("rack storage free = %d after alloc", got)
	}
}

func TestUtilization(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	if u := c.Utilization(units.CPU); u != 0 {
		t.Errorf("fresh utilization = %v", u)
	}
	total := c.TotalCapacity(units.CPU)
	if _, err := c.Allocate(c.Rack(0).BoxesOf(units.CPU)[0], 512); err != nil {
		t.Fatal(err)
	}
	want := 512.0 / float64(total)
	if u := c.Utilization(units.CPU); u != want {
		t.Errorf("utilization = %v, want %v", u, want)
	}
}

func TestContentionRatio(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	free := float64(c.TotalFree(units.RAM))
	if got := c.ContentionRatio(units.RAM, 16); got != 16/free {
		t.Errorf("CR = %v, want %v", got, 16/free)
	}
	if got := c.ContentionRatio(units.RAM, 0); got != 0 {
		t.Errorf("CR of zero request = %v", got)
	}
	// Exhaust RAM: ratio must become enormous but finite.
	for _, rack := range c.Racks() {
		for _, b := range rack.BoxesOf(units.RAM) {
			if _, err := c.Allocate(b, b.Free()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := c.ContentionRatio(units.RAM, 1); got < 1e8 {
		t.Errorf("CR with no free RAM = %v, want huge", got)
	}
}

func TestPreoccupy(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	if _, err := c.Preoccupy(0, 0, units.CPU, 512); err != nil {
		t.Fatalf("Preoccupy: %v", err)
	}
	if got, _ := c.Rack(0).MaxFree(units.CPU); got != 512 {
		t.Errorf("other CPU box max free = %d", got)
	}
	if c.Rack(0).BoxesOf(units.CPU)[0].Free() != 0 {
		t.Error("preoccupied box should be full")
	}
	if _, err := c.Preoccupy(99, 0, units.CPU, 1); err == nil {
		t.Error("bad rack should fail")
	}
	if _, err := c.Preoccupy(0, 9, units.CPU, 1); err == nil {
		t.Error("bad box index should fail")
	}
}

// Property: any sequence of random allocations and releases preserves all
// bookkeeping invariants, and releasing everything restores a pristine
// cluster.
func TestRandomAllocReleaseProperty(t *testing.T) {
	cfg := Config{
		Racks: 3, CPUBoxes: 2, RAMBoxes: 2, STOBoxes: 2,
		BricksPerBox: 4, UnitsPerBrick: 4, Units: units.DefaultConfig(),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := mustCluster(t, cfg)
		freshFree := c.free
		var live []Placement
		for step := 0; step < 200; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				c.Release(live[i])
				live = append(live[:i], live[i+1:]...)
			} else {
				box := c.boxes[rng.Intn(len(c.boxes))]
				amount := units.Amount(rng.Int63n(int64(box.Capacity())) + 1)
				if p, err := c.Allocate(box, amount); err == nil {
					live = append(live, p)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		for _, p := range live {
			c.Release(p)
		}
		return c.free == freshFree && c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: an allocation that fails leaves every box untouched.
func TestFailedAllocationLeavesStateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := mustCluster(t, DefaultConfig())
		box := c.boxes[rng.Intn(len(c.boxes))]
		// Fill the box almost completely, then over-ask.
		if _, err := c.Allocate(box, box.Capacity()-1); err != nil {
			return false
		}
		before := box.Free()
		if _, err := c.Allocate(box, 2); err == nil {
			return false
		}
		return box.Free() == before && c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestToyExampleConfig(t *testing.T) {
	// The paper's toy examples (Table 3) use boxes of 64 cores, 64 GB RAM
	// and 512 GB storage. That is representable with 4 bricks x 4 units
	// and a 32 GB storage unit.
	cfg := Config{
		Racks: 2, CPUBoxes: 2, RAMBoxes: 2, STOBoxes: 2,
		BricksPerBox: 4, UnitsPerBrick: 4,
		Units: units.Config{CPUUnitCores: 4, RAMUnitGB: 4, STOUnitGB: 32},
	}
	if got := cfg.BoxCapacity(units.CPU); got != 64 {
		t.Errorf("toy CPU box = %d cores, want 64", got)
	}
	if got := cfg.BoxCapacity(units.RAM); got != 64 {
		t.Errorf("toy RAM box = %d GB, want 64", got)
	}
	if got := cfg.BoxCapacity(units.Storage); got != 512 {
		t.Errorf("toy STO box = %d GB, want 512", got)
	}
}

func TestBoxString(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	got := c.Rack(1).BoxesOf(units.RAM)[0].String()
	if got != "RAM-box r1/b2" {
		t.Errorf("String = %q", got)
	}
}
