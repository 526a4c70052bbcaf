package units

import (
	"testing"
	"testing/quick"
)

func TestResourceString(t *testing.T) {
	cases := map[Resource]string{
		CPU:          "CPU",
		RAM:          "RAM",
		Storage:      "STO",
		Resource(42): "Resource(42)",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Resource(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}

func TestResourceNative(t *testing.T) {
	if CPU.Native() != "cores" {
		t.Errorf("CPU native = %q", CPU.Native())
	}
	if RAM.Native() != "GB" || Storage.Native() != "GB" {
		t.Errorf("RAM/STO native should be GB")
	}
	if Resource(9).Native() != "?" {
		t.Errorf("invalid resource native should be ?")
	}
}

func TestResourcesOrder(t *testing.T) {
	rs := Resources()
	if len(rs) != int(NumResources) {
		t.Fatalf("Resources() has %d entries, want %d", len(rs), NumResources)
	}
	if rs[0] != CPU || rs[1] != RAM || rs[2] != Storage {
		t.Errorf("canonical order wrong: %v", rs)
	}
}

func TestVecAndArithmetic(t *testing.T) {
	v := Vec(8, 16, 128)
	if v[CPU] != 8 || v[RAM] != 16 || v[Storage] != 128 {
		t.Fatalf("Vec misassigned: %v", v)
	}
	w := Vec(1, 2, 3)
	sum := v.Add(w)
	if sum != Vec(9, 18, 131) {
		t.Errorf("Add = %v", sum)
	}
	// Add must not mutate the receiver (value semantics).
	if v != Vec(8, 16, 128) {
		t.Errorf("receiver mutated: %v", v)
	}
}

func TestIsZeroNonNegative(t *testing.T) {
	if !(Vector{}).IsZero() {
		t.Error("zero vector should be zero")
	}
	if Vec(1, 0, 0).IsZero() {
		t.Error("non-zero vector reported zero")
	}
	if !Vec(0, 0, 0).NonNegative() || !Vec(5, 5, 5).NonNegative() {
		t.Error("non-negative vectors misreported")
	}
	if Vec(-1, 0, 0).NonNegative() {
		t.Error("negative vector reported non-negative")
	}
}

func TestVectorString(t *testing.T) {
	got := Vec(8, 16, 128).String()
	want := "cpu=8cores ram=16GB sto=128GB"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.CPUUnitCores != 4 || c.RAMUnitGB != 4 || c.STOUnitGB != 64 {
		t.Errorf("DefaultConfig = %+v, want Table 1 values", c)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{0, 4, 64},
		{4, 0, 64},
		{4, 4, 0},
		{-1, 4, 64},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

func TestUnitSize(t *testing.T) {
	c := DefaultConfig()
	if c.UnitSize(CPU) != 4 || c.UnitSize(RAM) != 4 || c.UnitSize(Storage) != 64 {
		t.Error("UnitSize mismatch with Table 1")
	}
}

func TestUnitSizePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UnitSize on invalid resource should panic")
		}
	}()
	DefaultConfig().UnitSize(Resource(7))
}

func TestUnitsCeil(t *testing.T) {
	c := DefaultConfig()
	cases := []struct {
		r    Resource
		a    Amount
		want int64
	}{
		{CPU, 0, 0},
		{CPU, -5, 0},
		{CPU, 1, 1},
		{CPU, 4, 1},
		{CPU, 5, 2},
		{CPU, 32, 8},
		{RAM, 16, 4},
		{RAM, 17, 5},
		{Storage, 128, 2},
		{Storage, 64, 1},
		{Storage, 65, 2},
	}
	for _, tc := range cases {
		if got := c.UnitsCeil(tc.r, tc.a); got != tc.want {
			t.Errorf("UnitsCeil(%v, %d) = %d, want %d", tc.r, tc.a, got, tc.want)
		}
	}
}

func TestAmountOfUnits(t *testing.T) {
	c := DefaultConfig()
	if c.AmountOfUnits(CPU, 16) != 64 {
		t.Error("16 CPU units should be 64 cores")
	}
	if c.AmountOfUnits(Storage, 8) != 512 {
		t.Error("8 STO units should be 512 GB")
	}
}

// Property: UnitsCeil is the smallest unit count whose amount covers a.
func TestUnitsCeilProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(raw int32, which uint8) bool {
		r := Resource(int(which) % int(NumResources))
		a := Amount(raw)
		n := c.UnitsCeil(r, a)
		if a <= 0 {
			return n == 0
		}
		covers := c.AmountOfUnits(r, n) >= a
		minimal := n == 0 || c.AmountOfUnits(r, n-1) < a
		return covers && minimal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBandwidthString(t *testing.T) {
	if LinkCapacity.String() != "200Gb/s" {
		t.Errorf("LinkCapacity.String() = %q", LinkCapacity.String())
	}
}

func TestBandwidthDemands(t *testing.T) {
	c := DefaultConfig()
	// The paper's typical VM: 8 cores, 16 GB RAM, 128 GB storage.
	req := Vec(8, 16, 128)
	if got := c.CPURAMDemand(req); got != 20 {
		t.Errorf("CPURAMDemand = %v, want 20Gb/s (4 RAM units x 5)", got)
	}
	if got := c.RAMSTODemand(req); got != 2 {
		t.Errorf("RAMSTODemand = %v, want 2Gb/s (2 STO units x 1)", got)
	}
}

func TestBandwidthDemandRoundsUp(t *testing.T) {
	c := DefaultConfig()
	// 1 GB RAM is still one full RAM unit of bandwidth.
	if got := c.CPURAMDemand(Vec(1, 1, 0)); got != 5 {
		t.Errorf("CPURAMDemand(1GB) = %v, want 5Gb/s", got)
	}
	// 65 GB storage is two storage units.
	if got := c.RAMSTODemand(Vec(0, 0, 65)); got != 2 {
		t.Errorf("RAMSTODemand(65GB) = %v, want 2Gb/s", got)
	}
}

// Property: demands are monotone in the request.
func TestDemandMonotoneProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(ram1, ram2, sto1, sto2 uint16) bool {
		a := Vec(0, Amount(ram1), Amount(sto1))
		b := Vec(0, Amount(ram1)+Amount(ram2), Amount(sto1)+Amount(sto2))
		return c.CPURAMDemand(a) <= c.CPURAMDemand(b) &&
			c.RAMSTODemand(a) <= c.RAMSTODemand(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
