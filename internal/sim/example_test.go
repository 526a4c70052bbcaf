package sim_test

import (
	"fmt"

	"risa/internal/core"
	"risa/internal/faults"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

func ExampleRunner_Run() {
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		panic(err)
	}
	runner, err := sim.NewRunner(st, core.New(st), sim.Config{})
	if err != nil {
		panic(err)
	}
	tr := &workload.Trace{Name: "demo", VMs: []workload.VM{
		{ID: 0, Arrival: 0, Lifetime: 100, Req: units.Vec(8, 16, 128)},
		{ID: 1, Arrival: 50, Lifetime: 100, Req: units.Vec(4, 8, 128)},
	}}
	res, err := runner.Run(tr)
	if err != nil {
		panic(err)
	}
	fmt.Println("scheduled:", res.Scheduled)
	fmt.Println("inter-rack:", res.InterRack)
	fmt.Println("makespan:", res.Makespan)
	fmt.Println("mean CPU-RAM RTT:", res.MeanCPURAMLatency)
	// Output:
	// scheduled: 2
	// inter-rack: 0
	// makespan: 150
	// mean CPU-RAM RTT: 110ns
}

func ExampleRunner_RunStream() {
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		panic(err)
	}
	sch := core.New(st)
	// Every box fails about once in 50 000 time units and is back about
	// 2 000 later.
	plan, err := faults.Generate(faults.GenConfig{
		Seed: 1, Horizon: 50_000, Racks: 18, BoxesPerRack: 6,
		MTBF: 50_000, MTTR: 2_000,
	})
	if err != nil {
		panic(err)
	}
	// The §5.1 request mix as an open-ended stream with fixed lifetimes,
	// held at 90 % occupancy.
	scfg := workload.DefaultSyntheticConfig()
	scfg.LifetimeStep = 0
	scfg.Controller = &workload.UtilizationController{Target: 0.9}
	stream, err := scfg.NewStream()
	if err != nil {
		panic(err)
	}
	cfg := sim.StreamConfig{
		Workload: sim.StreamWorkload{Duration: 50_000},
		Windows:  sim.StreamWindows{Warmup: 12_600, Window: 6_300},
	}
	runner, err := sim.NewRunner(st, sch, sim.Config{Faults: sim.Faults{Plan: plan, Evict: true}})
	if err != nil {
		panic(err)
	}
	res, err := runner.RunStream(stream, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("displaced:", res.Displaced, "recovered:", res.Recovered, "lost:", res.DisplacedLost)
	for _, w := range res.Windows {
		fmt.Printf("[%d, %d) acceptance %.1f %%, %d displaced\n", w.Start, w.End, w.AcceptancePct(), w.Displaced)
	}
	// Output:
	// displaced: 2436 recovered: 2409 lost: 27
	// [12600, 18900) acceptance 100.0 %, 376 displaced
	// [18900, 25200) acceptance 100.0 %, 219 displaced
	// [25200, 31500) acceptance 100.0 %, 249 displaced
	// [31500, 37800) acceptance 99.6 %, 415 displaced
	// [37800, 44100) acceptance 100.0 %, 367 displaced
}
