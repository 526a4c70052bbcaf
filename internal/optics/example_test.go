package optics_test

import (
	"fmt"
	"time"

	"risa/internal/optics"
)

func ExampleStages() {
	for _, ports := range []int{64, 256, 512} {
		fmt.Printf("%d-port Beneš: %d stages\n", ports, optics.Stages(ports))
	}
	// Output:
	// 64-port Beneš: 11 stages
	// 256-port Beneš: 15 stages
	// 512-port Beneš: 17 stages
}

func ExamplePathSwitchingEnergy() {
	// Equation 1 for a path through the rack switch held for one hour: the
	// one-shot setup term plus the trimming power over the lifetime.
	setup := optics.PathSwitchingEnergy(256)
	trim := optics.DefaultConfig().PathTrimmingPower(256)
	fmt.Printf("%.1f J\n", setup+trim*time.Hour.Seconds())
	// Output:
	// 1101.8 J
}

func ExampleTransceiverPower() {
	// A fully loaded 200 Gb/s link: 22.5 pJ/bit × 200e9 b/s.
	fmt.Printf("%.2f W\n", optics.TransceiverPower(200))
	// Output:
	// 4.50 W
}
