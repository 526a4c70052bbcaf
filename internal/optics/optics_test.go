package optics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"risa/internal/units"
)

func TestStages(t *testing.T) {
	cases := []struct {
		ports int
		want  int
	}{
		{2, 1},
		{4, 3},
		{8, 5},
		{16, 7},
		{32, 9},
		{64, 11},
		{128, 13},
		{256, 15},
		{512, 17},
	}
	for _, c := range cases {
		if got := Stages(c.ports); got != c.want {
			t.Errorf("Stages(%d) = %d; want %d", c.ports, got, c.want)
		}
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func TestStagesRejectsBadPorts(t *testing.T) {
	for _, p := range []int{0, 1, 3, 6, 100, -8} {
		if !panics(func() { Stages(p) }) {
			t.Errorf("Stages(%d) should panic", p)
		}
	}
}

func TestDefaultConfigConstants(t *testing.T) {
	if PTrimCellWatts != 22.67e-3 {
		t.Errorf("PTrimCellWatts = %g", PTrimCellWatts)
	}
	if PSwCellWatts != 13.75e-3 {
		t.Errorf("PSwCellWatts = %g", PSwCellWatts)
	}
	if c := DefaultConfig(); c.Alpha != 0.9 {
		t.Errorf("Alpha = %g", c.Alpha)
	}
	if TransceiverJoulesPerBit != 22.5e-12 {
		t.Errorf("TransceiverJoulesPerBit = %g", TransceiverJoulesPerBit)
	}
	if CellLatency != 100*time.Nanosecond {
		t.Errorf("CellLatency = %v", CellLatency)
	}
	if BoxSwitchPorts != 64 || RackSwitchPorts != 256 || InterRackSwitchPorts != 512 {
		t.Error("switch port counts should match §5.2")
	}
	for _, p := range []int{BoxSwitchPorts, RackSwitchPorts, InterRackSwitchPorts} {
		if panics(func() { Stages(p) }) {
			t.Errorf("Stages(%d) panics on a port constant", p)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, alpha := range []float64{0, 0.4, 1.1} {
		if err := (Config{Alpha: alpha}).Validate(); err == nil {
			t.Errorf("alpha %g should invalidate config", alpha)
		}
	}
	for _, alpha := range []float64{0.5, 1.0} {
		if err := (Config{Alpha: alpha}).Validate(); err != nil {
			t.Errorf("alpha %g is in range: %v", alpha, err)
		}
	}
}

func TestSwitchLatencyScalesWithSize(t *testing.T) {
	lat64, lat512 := SwitchLatency(64), SwitchLatency(512)
	if lat64 != 1100*time.Nanosecond {
		t.Errorf("lat_sw(64) = %v, want 1.1µs", lat64)
	}
	if lat512 != 1700*time.Nanosecond {
		t.Errorf("lat_sw(512) = %v, want 1.7µs", lat512)
	}
	if lat512 <= lat64 {
		t.Error("latency must grow with switch size")
	}
	if !panics(func() { SwitchLatency(9) }) {
		t.Error("bad port count should panic")
	}
}

func TestPathTrimmingPower(t *testing.T) {
	c := DefaultConfig()
	// 64-port: 0.9 x 11 x 22.67 mW = 224.43 mW.
	got := c.PathTrimmingPower(64)
	want := 0.9 * 11 * 22.67e-3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("PathTrimmingPower(64) = %g, want %g", got, want)
	}
	if !panics(func() { c.PathTrimmingPower(10) }) {
		t.Error("bad port count should panic")
	}
}

func TestPathSwitchingEnergy(t *testing.T) {
	// 64-port: (11/2) x 13.75 mW x 1.1 µs.
	got := PathSwitchingEnergy(64)
	want := 11.0 / 2 * 13.75e-3 * 1.1e-6
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("PathSwitchingEnergy(64) = %g, want %g", got, want)
	}
	if !panics(func() { PathSwitchingEnergy(10) }) {
		t.Error("bad port count should panic")
	}
}

// Equation 1's two terms for a rack-switch path, as power.NewModel takes
// them: n = 15 cells, lat_sw = 1.5 µs.
func TestSwitchEnergyEquation1(t *testing.T) {
	c := DefaultConfig()
	setup, trim := PathSwitchingEnergy(256), c.PathTrimmingPower(256)
	if want := 15.0 / 2 * 13.75e-3 * 1.5e-6; math.Abs(setup-want) > 1e-15 {
		t.Errorf("PathSwitchingEnergy(256) = %g, want %g", setup, want)
	}
	if want := 0.9 * 15 * 22.67e-3; math.Abs(trim-want) > 1e-12 {
		t.Errorf("PathTrimmingPower(256) = %g, want %g", trim, want)
	}
	// Trimming dominates for any realistic lifetime.
	if setup >= trim {
		t.Errorf("setup %g J should be below one second of trimming (%g J)", setup, trim)
	}
}

func TestTransceiverPower(t *testing.T) {
	// A fully loaded 200 Gb/s link: 22.5 pJ/bit x 200e9 b/s = 4.5 W.
	got := TransceiverPower(units.LinkCapacity)
	if math.Abs(got-4.5) > 1e-9 {
		t.Errorf("TransceiverPower(200Gb/s) = %g W, want 4.5", got)
	}
	if TransceiverPower(0) != 0 {
		t.Error("zero bandwidth should cost nothing")
	}
}

// Property: Equation 1's switch energy, setup + trimming × T, is monotone
// in lifetime and in switch size.
func TestSwitchEnergyMonotoneProperty(t *testing.T) {
	c := DefaultConfig()
	energy := func(ports int, secs float64) float64 {
		return PathSwitchingEnergy(ports) + c.PathTrimmingPower(ports)*secs
	}
	f := func(secs1, secs2 uint16) bool {
		t1 := float64(secs1)
		t2 := t1 + float64(secs2)
		return energy(64, t1) <= energy(64, t2) && energy(64, t1) <= energy(512, t1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Stages inverts correctly — an N-port switch has an odd number
// of stages and grows by 2 when N doubles.
func TestStagesGrowthProperty(t *testing.T) {
	prev := 0
	for ports := 2; ports <= 4096; ports *= 2 {
		s := Stages(ports)
		if s%2 != 1 {
			t.Errorf("Stages(%d) = %d, want odd", ports, s)
		}
		if prev != 0 && s != prev+2 {
			t.Errorf("Stages(%d) = %d, want %d", ports, s, prev+2)
		}
		prev = s
	}
}
