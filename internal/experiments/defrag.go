package experiments

import (
	"fmt"
	"strings"

	"risa/internal/baseline"
	"risa/internal/core"
	"risa/internal/network"
	"risa/internal/power"
	"risa/internal/sched"
	"risa/internal/workload"
)

// Defrag is an extension beyond the paper: take a cluster that NULB has
// already populated (with its characteristic inter-rack placements) and
// run RISA's migration pass (core.Rebalance) over the live VMs. It
// quantifies how much of the baselines' placement damage is repairable
// after the fact — and therefore how much of RISA's advantage comes from
// deciding intra-rack *up front*.
type Defrag struct {
	Placed        int
	InterBefore   int
	InterAfter    int
	Migrated      int
	PowerBeforeKW float64
	PowerAfterKW  float64
}

// defragVMs is how many of Azure-3000's 3000 VMs the defrag experiment
// places before the migration pass.
const defragVMs = 2000

// RunDefrag statically places the first defragVMs VMs of Azure-3000 with
// NULB, then rebalances with RISA.
func (s Setup) RunDefrag() (*Defrag, error) {
	tr, err := s.AzureTrace(workload.Azure3000)
	if err != nil {
		return nil, err
	}
	st, err := s.NewState()
	if err != nil {
		return nil, err
	}
	nulb := baseline.NewNULB(st)
	model, err := power.NewModel(s.Optics)
	if err != nil {
		return nil, err
	}

	out := &Defrag{}
	var live []*sched.Assignment
	for _, vm := range tr.VMs[:defragVMs] {
		a, err := nulb.Schedule(vm)
		if err != nil {
			continue
		}
		live = append(live, a)
		out.Placed++
		if a.InterRack() {
			out.InterBefore++
		}
	}
	powerOf := func() float64 {
		var w float64
		for _, a := range live {
			for _, fl := range [...]*network.Flow{a.CPURAMFlow, a.RAMSTOFlow} {
				if fl != nil {
					w += model.FlowPower(fl)
				}
			}
		}
		return w
	}
	out.PowerBeforeKW = powerOf() / 1000

	out.Migrated = core.Rebalance(core.New(st), live)
	for _, a := range live {
		if a.InterRack() {
			out.InterAfter++
		}
	}
	out.PowerAfterKW = powerOf() / 1000
	return out, nil
}

// Render draws the before/after comparison.
func (d *Defrag) Render() string {
	var b strings.Builder
	b.WriteString("Extension: RISA migration pass over a NULB-populated cluster (Azure-3000)\n")
	fmt.Fprintf(&b, "  placed %d VMs; inter-rack %d → %d (%d migrated)\n",
		d.Placed, d.InterBefore, d.InterAfter, d.Migrated)
	fmt.Fprintf(&b, "  steady-state optical power %.3f kW → %.3f kW (−%.1f%%)\n",
		d.PowerBeforeKW, d.PowerAfterKW,
		(1-d.PowerAfterKW/d.PowerBeforeKW)*100)
	b.WriteString("  The migration pass converts the baseline's inter-rack placements\n")
	b.WriteString("  back to intra-rack wherever any single rack can absorb the VM —\n")
	b.WriteString("  recovering most of the optical power RISA would have saved by\n")
	b.WriteString("  deciding intra-rack up front (at the cost of VM migrations).\n")
	return b.String()
}
