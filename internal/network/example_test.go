package network_test

import (
	"fmt"

	"risa/internal/network"
	"risa/internal/topology"
	"risa/internal/units"
)

func ExampleFabric_Reserve() {
	cl, err := topology.New(topology.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fab, err := network.NewFabric(cl, network.DefaultConfig())
	if err != nil {
		panic(err)
	}
	// A 20 Gb/s CPU-RAM circuit across racks 0 and 5, held in memory the
	// caller owns — a sched.Assignment embeds its two flows the same way.
	src := cl.Rack(0).BoxesOf(units.CPU)[0]
	dst := cl.Rack(5).BoxesOf(units.RAM)[0]
	var fl network.Flow
	if err := fab.Reserve(&fl, src, dst, 20, network.FirstFit); err != nil {
		panic(err)
	}
	fmt.Println("inter-rack:", fl.InterRack())
	fmt.Println("link hops:", fl.LinkTraversals())
	fmt.Println("switches:", fl.BoxSwitchCrossings(), fl.RackSwitchCrossings(), fl.InterRackSwitchCrossings())
	fab.Unreserve(&fl)
	// Output:
	// inter-rack: true
	// link hops: 6
	// switches: 2 2 1
}
