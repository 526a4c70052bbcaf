package experiments_test

import (
	"fmt"

	"risa/internal/experiments"
	"risa/internal/sim"
	"risa/internal/units"
	"risa/internal/workload"
)

func ExampleSetup_NewCell() {
	setup := experiments.DefaultSetup()
	// A fresh datacenter under RISA and the stream that holds it at 75 %.
	runner, stream, err := setup.NewCell("RISA", 0.75, workload.TierMix{}, sim.Faults{})
	if err != nil {
		panic(err)
	}
	res, err := runner.RunStream(stream, sim.StreamConfig{
		Workload: sim.StreamWorkload{MaxArrivals: 10_000},
		Windows:  sim.StreamWindows{Warmup: 12_600, Window: 6_300},
	})
	if err != nil {
		panic(err)
	}
	for _, w := range res.Windows {
		fmt.Printf("[%d, %d) RAM %.1f %% acceptance %.1f %%\n", w.Start, w.End, w.AvgUtil[units.RAM], w.AcceptancePct())
	}
	fmt.Printf("measured: %d of %d accepted, RAM %.1f %%, %d resident at t=%d\n",
		res.Accepted, res.Arrivals, res.AvgUtil[units.RAM], res.Resident, res.End)
	// Output:
	// [12600, 18900) RAM 79.1 % acceptance 100.0 %
	// [18900, 25200) RAM 76.6 % acceptance 100.0 %
	// [25200, 31500) RAM 77.8 % acceptance 100.0 %
	// [31500, 37800) RAM 76.2 % acceptance 100.0 %
	// [37800, 44100) RAM 71.0 % acceptance 100.0 %
	// [44100, 50400) RAM 73.4 % acceptance 100.0 %
	// [50400, 56700) RAM 75.4 % acceptance 100.0 %
	// [56700, 63000) RAM 73.8 % acceptance 100.0 %
	// [63000, 69300) RAM 75.5 % acceptance 100.0 %
	// measured: 7940 of 7940 accepted, RAM 75.4 %, 854 resident at t=71724
}
