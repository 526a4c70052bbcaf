package power_test

import (
	"fmt"
	"time"

	"risa/internal/network"
	"risa/internal/optics"
	"risa/internal/power"
	"risa/internal/topology"
	"risa/internal/units"
)

// The same typical-VM CPU-RAM circuit held inside one rack and across two:
// the inter-rack one crosses two more switches and two more transceiver
// pairs.
func ExampleModel() {
	model, err := power.NewModel(optics.DefaultConfig())
	if err != nil {
		panic(err)
	}
	cl, err := topology.New(topology.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fab, err := network.NewFabric(cl, network.DefaultConfig())
	if err != nil {
		panic(err)
	}
	bw := units.DefaultConfig().CPURAMDemand(units.Vec(8, 16, 128))
	var intra, inter network.Flow
	if err := fab.Reserve(&intra, cl.Rack(0).BoxesOf(units.CPU)[0], cl.Rack(0).BoxesOf(units.RAM)[0], bw, network.FirstFit); err != nil {
		panic(err)
	}
	if err := fab.Reserve(&inter, cl.Rack(0).BoxesOf(units.CPU)[1], cl.Rack(1).BoxesOf(units.RAM)[0], bw, network.FirstFit); err != nil {
		panic(err)
	}
	for _, c := range []struct {
		name string
		fl   *network.Flow
	}{{"intra-rack", &intra}, {"inter-rack", &inter}} {
		fmt.Printf("%s %v: %.2f W = %.2f W transceivers + %.2f W trimming\n", c.name, c.fl.BW(),
			model.FlowPower(c.fl), model.TransceiverPower(c.fl), model.TrimmingPower(c.fl))
	}
	for _, life := range []time.Duration{time.Minute, time.Hour, 24 * time.Hour} {
		fmt.Printf("held %v: intra %.1f J, inter %.1f J\n",
			life, model.FlowEnergy(&intra, life), model.FlowEnergy(&inter, life))
	}
	fab.Unreserve(&intra)
	fab.Unreserve(&inter)
	// Output:
	// intra-rack 20Gb/s: 2.55 W = 1.80 W transceivers + 0.75 W trimming
	// inter-rack 20Gb/s: 4.11 W = 2.70 W transceivers + 1.41 W trimming
	// held 1m0s: intra 153.3 J, inter 246.5 J
	// held 1h0m0s: intra 9197.7 J, inter 14788.1 J
	// held 24h0m0s: intra 220744.3 J, inter 354914.5 J
}
