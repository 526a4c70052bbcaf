package experiments

import (
	"fmt"
	"strings"
	"time"

	"risa/internal/sim"
	"risa/internal/workload"
)

// This file is the hyperscale experiment family — an extension beyond the
// paper, whose cluster is fixed at the Table 1 size of 18 racks. Zervas et
// al. (the NULB/NALB source) frame disaggregated scheduling as a question
// of fabric growth; the scale sweep answers it empirically: the same four
// schedulers, the same synthetic workload family, on clusters from the
// paper's 18 racks up to ~910× that (16384 racks ≈ 100k boxes), with the offered load scaled
// proportionally so every cluster size runs at the same operating point.
// The quantity under test is the per-VM decision time: with the
// cluster-level candidate index it grows sublinearly in rack count.

// DefaultScaleMaxRacks is the largest cluster of the default sweep ladder:
// ~910× the paper's 18 racks — 16384 racks ≈ 100k boxes, the scale
// Protean-class placement services operate at.
const DefaultScaleMaxRacks = 16384

// DefaultScaleVMsPerRack is the sweep's offered load per rack. The paper's
// synthetic workload is 2500 VMs on 18 racks (≈139/rack); the sweep uses a
// lighter density so the hyperscale points stay inside a smoke budget
// while still pushing every cluster size to the same steady-state
// utilization.
const DefaultScaleVMsPerRack = 50

// ScaleLadder returns the sweep's rack counts: the paper's 18 racks
// quadrupling up to maxRacks, with maxRacks itself always the last point.
// A maxRacks at or below 18 collapses the ladder to that single point.
func ScaleLadder(maxRacks int) []int {
	if maxRacks <= 18 {
		return []int{maxRacks}
	}
	var ladder []int
	for r := 18; r < maxRacks; r *= 4 {
		ladder = append(ladder, r)
	}
	return append(ladder, maxRacks)
}

// ScalePoint holds one cluster size's results for every algorithm.
type ScalePoint struct {
	Racks   int
	VMs     int // trace length at this point
	Results map[string]*sim.Result
}

// PerVMDecision returns the mean wall-clock scheduling decision time per
// VM arrival for one algorithm at this point.
func (p *ScalePoint) PerVMDecision(alg string) time.Duration {
	r := p.Results[alg]
	if n := r.Scheduled + r.Dropped; n > 0 {
		return r.SchedulingTime / time.Duration(n)
	}
	return 0
}

// ScaleSweep is the full rack-count × algorithm grid.
type ScaleSweep struct {
	Points []ScalePoint
}

// scaleTrace generates the synthetic workload for one cluster size: VM
// count proportional to racks, arrival rate scaled up by the same factor
// (so the per-rack arrival rate — and with it the steady-state utilization
// — matches the paper's 18-rack operating point), and the lifetime
// schedule stretched so lifetimes grow at the same rate in simulated time
// rather than per request.
func (s Setup) scaleTrace(racks, vmsPerRack int) (*workload.Trace, error) {
	factor := float64(racks) / 18
	cfg := workload.DefaultSyntheticConfig()
	cfg.Seed = s.Seed
	cfg.N = racks * vmsPerRack
	cfg.MeanInterarrival /= factor
	if setSize := int(float64(cfg.SetSize) * factor); setSize > 0 {
		cfg.SetSize = setSize
	}
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		return nil, err
	}
	tr.Name = fmt.Sprintf("scale-%dr", racks)
	return tr, nil
}

// RunScale executes the sweep over the given rack counts (ScaleLadder
// order is preserved) with DefaultScaleVMsPerRack VMs per rack per point.
// Like Figure 11 the grid runs on a single worker: the sweep's headline
// metric is wall-clock decision time, and concurrent runs contending for
// cores would inflate each other's measurement.
func (s Setup) RunScale(rackCounts []int) (*ScaleSweep, error) {
	sweep := &ScaleSweep{}
	var jobs []Job
	for _, racks := range rackCounts {
		setup := s
		setup.Topology.Racks = racks
		tr, err := setup.scaleTrace(racks, DefaultScaleVMsPerRack)
		if err != nil {
			return nil, err
		}
		sweep.Points = append(sweep.Points, ScalePoint{
			Racks:   racks,
			VMs:     len(tr.VMs),
			Results: make(map[string]*sim.Result, len(Algorithms)),
		})
		for _, alg := range Algorithms {
			jobs = append(jobs, Job{Setup: setup, Algorithm: alg, Trace: tr})
		}
	}
	outcomes, err := Engine{Workers: 1}.Run(jobs)
	if err != nil {
		return nil, err
	}
	for i, o := range outcomes {
		sweep.Points[i/len(Algorithms)].Results[o.Job.Algorithm] = o.Result
	}
	return sweep, nil
}

// Render draws the sweep as one table per cluster size plus a decision-time
// growth summary across sizes.
func (sw *ScaleSweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale sweep: schedulers vs cluster size (synthetic workload, %d VMs/rack)\n",
		DefaultScaleVMsPerRack)
	for _, p := range sw.Points {
		fmt.Fprintf(&b, "racks=%d (%d VMs):\n", p.Racks, p.VMs)
		fmt.Fprintf(&b, "  %-8s %10s %8s %12s %14s\n",
			"alg", "scheduled", "dropped", "inter-rack%", "sched-µs/VM")
		for _, alg := range Algorithms {
			r := p.Results[alg]
			fmt.Fprintf(&b, "  %-8s %10d %8d %11.2f%% %14.2f\n",
				alg, r.Scheduled, r.Dropped, r.InterRackPct,
				float64(p.PerVMDecision(alg).Nanoseconds())/1000)
		}
	}
	if len(sw.Points) > 1 {
		first, last := sw.Points[0], sw.Points[len(sw.Points)-1]
		growth := float64(last.Racks) / float64(first.Racks)
		b.WriteString("Decision-time growth (last vs first point):\n")
		for _, alg := range Algorithms {
			d0, d1 := first.PerVMDecision(alg), last.PerVMDecision(alg)
			ratio := 0.0
			if d0 > 0 {
				ratio = float64(d1) / float64(d0)
			}
			fmt.Fprintf(&b, "  %-8s %.2fx decision time for %.0fx racks\n", alg, ratio, growth)
		}
	}
	return b.String()
}
