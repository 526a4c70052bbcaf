package units_test

import (
	"fmt"

	"risa/internal/units"
)

func ExampleConfig_CPURAMDemand() {
	cfg := units.DefaultConfig()
	// The paper's typical VM: 8 cores, 16 GB RAM, 128 GB storage.
	req := units.Vec(8, 16, 128)
	fmt.Println(cfg.CPURAMDemand(req)) // 4 RAM units × 5 Gb/s
	fmt.Println(cfg.RAMSTODemand(req)) // 2 storage units × 1 Gb/s
	// Output:
	// 20Gb/s
	// 2Gb/s
}

func ExampleConfig_UnitsCeil() {
	cfg := units.DefaultConfig()
	fmt.Println(cfg.UnitsCeil(units.CPU, 15))     // 15 cores → 4 units
	fmt.Println(cfg.UnitsCeil(units.Storage, 65)) // 65 GB → 2 units
	// Output:
	// 4
	// 2
}
