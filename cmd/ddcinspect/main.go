// Command ddcinspect dumps the simulated disaggregated datacenter: the
// Table 1 cluster architecture, derived capacities, the optical fabric
// provisioning and the device-model constants. Useful for sanity-checking
// a configuration before running experiments.
package main

import (
	"flag"
	"fmt"
	"os"

	"risa/internal/network"
	"risa/internal/optics"
	"risa/internal/topology"
	"risa/internal/units"
)

func main() {
	racks := flag.Int("racks", 18, "racks in the cluster")
	uplinks := flag.Int("uplinks", 16, "uplinks per box")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ddcinspect: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	tcfg := topology.DefaultConfig()
	tcfg.Racks = *racks
	ncfg := network.DefaultConfig()
	ncfg.BoxUplinks = *uplinks
	if err := run(tcfg, ncfg); err != nil {
		fmt.Fprintf(os.Stderr, "ddcinspect: %v\n", err)
		os.Exit(1)
	}
}

func run(tcfg topology.Config, ncfg network.Config) error {
	cl, err := topology.New(tcfg)
	if err != nil {
		return err
	}
	fab, err := network.NewFabric(cl, ncfg)
	if err != nil {
		return err
	}

	fmt.Println("Disaggregated datacenter (Table 1 architecture)")
	fmt.Printf("  racks              %d\n", tcfg.Racks)
	fmt.Printf("  boxes per rack     %d  (%d CPU / %d RAM / %d STO)\n",
		tcfg.BoxesPerRack(), tcfg.CPUBoxes, tcfg.RAMBoxes, tcfg.STOBoxes)
	fmt.Printf("  bricks per box     %d\n", tcfg.BricksPerBox)
	fmt.Printf("  units per brick    %d\n", tcfg.UnitsPerBrick)
	fmt.Printf("  unit sizes         %d cores / %d GB RAM / %d GB storage\n",
		tcfg.Units.CPUUnitCores, tcfg.Units.RAMUnitGB, tcfg.Units.STOUnitGB)
	fmt.Println("Derived capacities")
	for _, r := range units.Resources() {
		fmt.Printf("  %-4v box %6d %-6s cluster %9d %s\n",
			r, tcfg.BoxCapacity(r), r.Native(), cl.TotalCapacity(r), r.Native())
	}
	fmt.Println("Optical fabric")
	fmt.Printf("  link capacity       %v (8 x 25 Gb/s SiP channels)\n", units.LinkCapacity)
	fmt.Printf("  box uplinks         %d per box\n", ncfg.BoxUplinks)
	fmt.Printf("  rack uplinks        %d per rack\n", network.RackUplinks)
	fmt.Printf("  intra-rack capacity %v\n", fab.IntraRackCapacity())
	fmt.Printf("  inter-rack capacity %v\n", fab.InterRackCapacity())
	fmt.Println("Optical device models")
	for _, sw := range []struct {
		name  string
		ports int
	}{{"box switch", optics.BoxSwitchPorts}, {"rack switch", optics.RackSwitchPorts}, {"inter-rack switch", optics.InterRackSwitchPorts}} {
		fmt.Printf("  %-18s %3d ports, %2d cells/path, lat_sw %v, trim %.1f mW/path\n",
			sw.name, sw.ports, optics.Stages(sw.ports), optics.SwitchLatency(sw.ports),
			optics.DefaultConfig().PathTrimmingPower(sw.ports)*1000)
	}
	fmt.Printf("  MRR cell powers     trim %.2f mW, switch %.2f mW, alpha %.2f\n",
		optics.PTrimCellWatts*1000, optics.PSwCellWatts*1000, optics.DefaultAlpha)
	fmt.Printf("  transceiver         %.1f pJ/bit (%.2f W per loaded link)\n",
		optics.TransceiverJoulesPerBit*1e12, optics.TransceiverPower(units.LinkCapacity))
	return nil
}
