package core_test

import (
	"fmt"

	"risa/internal/core"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

func ExampleNew() {
	// A fresh Table 1 datacenter: 18 racks × 6 boxes × 8 bricks × 16
	// units, with the calibrated optical fabric.
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		panic(err)
	}
	risa := core.New(st)

	// The paper's "typical VM": 8 cores, 16 GB RAM, 128 GB storage.
	vm := workload.VM{ID: 0, Lifetime: 1000, Req: units.Vec(8, 16, 128)}
	a, err := risa.Schedule(vm)
	if err != nil {
		panic(err)
	}
	fmt.Printf("VM %d scheduled (%s)\n", vm.ID, vm.Req)
	fmt.Println("CPU →", a.CPU.Box)
	fmt.Println("RAM →", a.RAM.Box)
	fmt.Println("STO →", a.STO.Box)
	fmt.Println("inter-rack:", a.InterRack())
	fmt.Println("CPU-RAM RTT:", a.CPURAMLatency())
	fmt.Println("CPU-RAM flow:", a.CPURAMFlow.BW(), "RAM-STO flow:", a.RAMSTOFlow.BW())
	fmt.Printf("RAM utilization: %.3f%%\n", st.Cluster.Utilization(units.RAM)*100)

	// Release when the VM departs; the datacenter is pristine again.
	risa.Release(a)
	fmt.Printf("released; RAM utilization: %.3f%%\n", st.Cluster.Utilization(units.RAM)*100)
	// Output:
	// VM 0 scheduled (cpu=8cores ram=16GB sto=128GB)
	// CPU → CPU-box r0/b0
	// RAM → RAM-box r0/b2
	// STO → STO-box r0/b4
	// inter-rack: false
	// CPU-RAM RTT: 110ns
	// CPU-RAM flow: 20Gb/s RAM-STO flow: 2Gb/s
	// RAM utilization: 0.087%
	// released; RAM utilization: 0.000%
}

func ExampleNewWithOptions() {
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		panic(err)
	}
	// An ablated RISA: worst-fit packing, no round-robin.
	variant := core.NewWithOptions(st, core.Options{
		Packing:           core.WorstFit,
		DisableRoundRobin: true,
		Name:              "RISA-WF",
	})
	fmt.Println(variant.Name())
	// Output:
	// RISA-WF
}

func ExampleRebalance() {
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		panic(err)
	}
	risa := core.New(st)
	a, err := risa.Schedule(workload.VM{ID: 0, Lifetime: 1, Req: units.Vec(8, 16, 128)})
	if err != nil {
		panic(err)
	}
	// Already intra-rack: nothing to migrate.
	fmt.Println(core.Rebalance(risa, []*sched.Assignment{a}))
	// Output:
	// 0
}
