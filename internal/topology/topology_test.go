package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

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
		func(c *Config) { c.BricksPerBox = 65 }, // wider than the brick mask
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
	if box.Capacity()-box.free != 100 {
		t.Errorf("used = %d, want 100", box.Capacity()-box.free)
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
	if box.bricks[0] != 0 || box.bricks[1] != 28 {
		t.Errorf("brick frees = %d,%d; want 0,28", box.bricks[0], box.bricks[1])
	}
	if box.brickCap != 64 {
		t.Errorf("brick capacity = %d, want 64", box.brickCap)
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

// TestAllocateIntoRefusalLeavesDst holds AllocateInto's in-place
// contract. A refusal (amount ≤ 0, a failed box, amount above free)
// leaves *dst exactly as it was — box, total, and the share slice's
// contents, length, capacity and backing array — and moves no box, rack
// or cluster free amount. A success with room in dst.Shares writes into
// that backing array instead of allocating one.
func TestAllocateIntoRefusalLeavesDst(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	rack := c.Rack(0)
	box, failed := rack.BoxesOf(units.CPU)[0], rack.BoxesOf(units.CPU)[1]
	c.SetBoxFailed(failed, true)
	dst := Placement{Shares: make([]BrickShare, 0, 4)}
	if err := c.AllocateInto(box, 100, &dst); err != nil {
		t.Fatal(err)
	}
	want := dst
	wantShares := slices.Clone(dst.Shares)
	boxFree, failedUsed := box.Free(), failed.Capacity()-failed.free
	rackFree, clusterFree := rack.Free(units.CPU), c.TotalFree(units.CPU)
	for _, tc := range []struct {
		name   string
		box    *Box
		amount units.Amount
	}{
		{"zero amount", box, 0},
		{"negative amount", box, -4},
		{"failed box", failed, 8},
		{"above free", box, box.Free() + 1},
	} {
		if err := c.AllocateInto(tc.box, tc.amount, &dst); err == nil {
			t.Errorf("%s: AllocateInto succeeded", tc.name)
		}
		if dst.Box != want.Box || dst.Total != want.Total ||
			len(dst.Shares) != len(want.Shares) || cap(dst.Shares) != cap(want.Shares) ||
			unsafe.SliceData(dst.Shares) != unsafe.SliceData(want.Shares) ||
			!slices.Equal(dst.Shares, wantShares) {
			t.Errorf("%s: dst = %+v (cap %d), want %+v (cap %d), same backing array",
				tc.name, dst, cap(dst.Shares), want, cap(want.Shares))
		}
		if box.Free() != boxFree || failed.Capacity()-failed.free != failedUsed ||
			rack.Free(units.CPU) != rackFree || c.TotalFree(units.CPU) != clusterFree {
			t.Errorf("%s: free amounts moved: box %d/%d, failed box used %d/%d, rack %d/%d, cluster %d/%d",
				tc.name, box.Free(), boxFree, failed.Capacity()-failed.free, failedUsed,
				rack.Free(units.CPU), rackFree, c.TotalFree(units.CPU), clusterFree)
		}
	}
	c.ReleaseFrom(&dst)
	if err := c.AllocateInto(box, 8, &dst); err != nil {
		t.Fatal(err)
	}
	if dst.Box != box || dst.Total != 8 || len(dst.Shares) != 1 ||
		unsafe.SliceData(dst.Shares) != unsafe.SliceData(want.Shares) {
		t.Errorf("reuse: dst = %+v, want 8 on %v in the old backing array", dst, box)
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
	boxA.release(&p)
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
	if err := c.Preoccupy(0, 0, units.CPU, 512); err != nil {
		t.Fatalf("Preoccupy: %v", err)
	}
	if got, _ := c.Rack(0).MaxFree(units.CPU); got != 512 {
		t.Errorf("other CPU box max free = %d", got)
	}
	if c.Rack(0).BoxesOf(units.CPU)[0].Free() != 0 {
		t.Error("preoccupied box should be full")
	}
	if err := c.Preoccupy(99, 0, units.CPU, 1); err == nil {
		t.Error("bad rack should fail")
	}
	if err := c.Preoccupy(0, 9, units.CPU, 1); err == nil {
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

// scanAllocate is the full-scan first-fit carve the availability mask
// replaced, kept as the oracle: it walks every brick from index 0,
// skipping drained ones, and takes what each can give until amount is
// covered.
func scanAllocate(bricks []units.Amount, amount units.Amount) []BrickShare {
	var shares []BrickShare
	for i := range bricks {
		if amount == 0 {
			break
		}
		if bricks[i] == 0 {
			continue
		}
		take := min(bricks[i], amount)
		bricks[i] -= take
		amount -= take
		shares = append(shares, BrickShare{Brick: i, Amount: take})
	}
	return shares
}

// TestAllocateMatchesBrickScan holds the mask-driven carve to the brick
// scan it replaced on boxes of 1, 8 and 64 bricks, under random
// allocations (some over-asking), releases and restores of random share
// patterns (refused ones roll back part-way): after every op the shares,
// the brick frees and the mask must match the oracle's.
func TestAllocateMatchesBrickScan(t *testing.T) {
	for _, n := range []int{1, 8, 64} {
		c := mustCluster(t, Config{
			Racks: 1, CPUBoxes: 1, RAMBoxes: 1, STOBoxes: 1,
			BricksPerBox: n, UnitsPerBrick: 4, Units: units.DefaultConfig(),
		})
		box := c.boxes[0]
		oracle := make([]units.Amount, n)
		for i := range oracle {
			oracle[i] = box.brickCap
		}
		rng := rand.New(rand.NewSource(int64(n)))
		var live []*Placement
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(10); {
			case r < 4: // allocate, over-asking one time in ten
				free := box.free
				amount := units.Amount(rng.Int63n(int64(free)+1)) + 1
				if rng.Intn(10) == 0 {
					amount = free + 1
				}
				p := new(Placement)
				err := c.AllocateInto(box, amount, p)
				if amount > free {
					if err == nil {
						t.Fatalf("n=%d op %d: allocate %d beyond free %d succeeded", n, op, amount, free)
					}
					break
				}
				if err != nil {
					t.Fatalf("n=%d op %d: allocate %d: %v", n, op, amount, err)
				}
				if want := scanAllocate(oracle, amount); !slices.Equal(p.Shares, want) {
					t.Fatalf("n=%d op %d: allocate %d shares %v, scan %v", n, op, amount, p.Shares, want)
				}
				live = append(live, p)
			case r < 8: // release
				if len(live) == 0 {
					break
				}
				j := rng.Intn(len(live))
				c.ReleaseFrom(live[j])
				for _, s := range live[j].Shares {
					oracle[s.Brick] += s.Amount
				}
				live = slices.Delete(live, j, j+1)
			default: // restore a random share pattern; it fits or is refused whole
				shares := make([]BrickShare, rng.Intn(4)+1)
				after := slices.Clone(oracle)
				fits := true
				for i := range shares {
					b := rng.Intn(n)
					amount := units.Amount(rng.Int63n(int64(after[b])+2)) + 1
					shares[i] = BrickShare{Brick: b, Amount: amount}
					if fits = fits && amount <= after[b]; fits {
						after[b] -= amount
					}
				}
				p := new(Placement)
				err := c.RestorePlacement(box, shares, p)
				if (err == nil) != fits {
					t.Fatalf("n=%d op %d: restore %v: err %v, oracle fits %v", n, op, shares, err, fits)
				}
				if fits {
					oracle = after
					live = append(live, p)
				}
			}
			var mask uint64
			for i, f := range oracle {
				if f > 0 {
					mask |= 1 << uint(i)
				}
			}
			if !slices.Equal(box.bricks, oracle) || box.avail != mask {
				t.Fatalf("n=%d op %d: bricks %v mask %#x, scan %v mask %#x", n, op, box.bricks, box.avail, oracle, mask)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("n=%d op %d: %v", n, op, err)
			}
		}
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
