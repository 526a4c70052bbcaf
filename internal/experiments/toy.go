package experiments

import (
	"fmt"
	"strings"

	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// ToyConfig is the Table 3 architecture of the paper's toy examples:
// 2 racks, 2 boxes of each resource per rack, boxes of 64 cores / 64 GB
// RAM / 512 GB storage.
func ToyConfig() topology.Config {
	return topology.Config{
		Racks: 2, CPUBoxes: 2, RAMBoxes: 2, STOBoxes: 2,
		BricksPerBox: 4, UnitsPerBrick: 4,
		Units: units.Config{CPUUnitCores: 4, RAMUnitGB: 4, STOUnitGB: 32},
	}
}

// NewToyState builds the exact Table 3 availability:
//
//	CPU:  id0 (r0,b0)=0    id1 (r0,b1)=0    id2 (r1,b0)=64   id3 (r1,b1)=32
//	RAM:  id0 (r0,b0)=0    id1 (r0,b1)=16   id2 (r1,b0)=32   id3 (r1,b1)=16
//	STO:  id0 (r0,b0)=0    id1 (r0,b1)=0    id2 (r1,b0)=256  id3 (r1,b1)=512
func NewToyState() (*sched.State, error) {
	st, err := sched.NewState(ToyConfig(), network.DefaultConfig())
	if err != nil {
		return nil, err
	}
	occupied := []struct {
		rack, box int
		kind      units.Resource
		amt       units.Amount
	}{
		{0, 0, units.CPU, 64}, {0, 1, units.CPU, 64}, {1, 1, units.CPU, 32},
		{0, 0, units.RAM, 64}, {0, 1, units.RAM, 48}, {1, 0, units.RAM, 32}, {1, 1, units.RAM, 48},
		{0, 0, units.Storage, 512}, {0, 1, units.Storage, 512}, {1, 0, units.Storage, 256},
	}
	for _, o := range occupied {
		if err := st.Cluster.Preoccupy(o.rack, o.box, o.kind, o.amt); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// placementID renders a placement as the paper's global per-resource box
// id: rack*2 + kind index (Table 3 numbers boxes 0..3 per resource).
func placementID(p topology.Placement) string {
	if p.IsZero() {
		return "-"
	}
	return fmt.Sprintf("%d", p.Box.Rack()*2+p.Box.KindIndex())
}

// RunToy1 replays toy example 1 (§4.3.1): the typical VM (8 cores, 16 GB,
// 128 GB) on the Table 3 state under NULB and RISA, reporting the chosen
// (CPU, RAM, STO) box ids — the paper expects (2,1,2) vs (2,2,2).
func RunToy1() (string, error) {
	var b strings.Builder
	b.WriteString("Toy example 1 (§4.3.1, Table 3): VM = 8 cores, 16 GB RAM, 128 GB storage\n")
	vm := workload.VM{ID: 0, Lifetime: 100, Req: units.Vec(8, 16, 128)}
	for _, alg := range []string{"NULB", "RISA"} {
		st, err := NewToyState()
		if err != nil {
			return "", err
		}
		sch, err := NewScheduler(alg, st)
		if err != nil {
			return "", err
		}
		a, err := sch.Schedule(vm)
		if err != nil {
			return "", fmt.Errorf("toy1 %s: %w", alg, err)
		}
		kind := "intra-rack"
		if a.InterRack() {
			kind = "INTER-rack"
		}
		fmt.Fprintf(&b, "  %-5s → (CPU, RAM, STO) box ids (%s, %s, %s)  [%s, CPU-RAM RTT %v]\n",
			alg, placementID(a.CPU), placementID(a.RAM), placementID(a.STO),
			kind, a.CPURAMLatency())
	}
	b.WriteString("  Paper: NULB (2, 1, 2) inter-rack; RISA (2, 2, 2) intra-rack.\n")
	return b.String(), nil
}

// RunToy2 replays toy example 2 (§4.3.2, Table 4): eight CPU-only VMs
// against rack 1 under RISA and RISA-BF.
func RunToy2() (string, error) {
	var b strings.Builder
	reqs := []units.Amount{15, 10, 30, 12, 5, 8, 16, 4}
	b.WriteString("Toy example 2 (§4.3.2, Table 4): CPU-only VMs 15,10,30,12,5,8,16,4 cores\n")
	b.WriteString("  VM id      ")
	for i := range reqs {
		fmt.Fprintf(&b, "%4d", i)
	}
	b.WriteString("\n")
	for _, alg := range []string{"RISA", "RISA-BF"} {
		st, err := NewToyState()
		if err != nil {
			return "", err
		}
		sch, err := NewScheduler(alg, st)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %-9s  ", alg)
		for i, cores := range reqs {
			vm := workload.VM{ID: i, Lifetime: 100, Req: units.Vec(cores, 0, 0)}
			a, err := sch.Schedule(vm)
			if err != nil {
				b.WriteString("  NA")
				continue
			}
			fmt.Fprintf(&b, "%4d", a.CPU.Box.KindIndex())
		}
		b.WriteString("\n")
	}
	b.WriteString("  Paper Table 4: RISA 0,0,0,1,1,1,NA,1; RISA-BF 1,1,0,0,1,0,0*,0\n")
	b.WriteString("  (*the paper schedules VM 6 on box 0, but the requests sum to 100\n")
	b.WriteString("   cores against 96 available — arithmetically impossible; best-fit\n")
	b.WriteString("   must drop it. See DESIGN.md §4.)\n")
	return b.String(), nil
}
