package experiments

import (
	"fmt"
	"strings"

	"risa/internal/core"
	"risa/internal/metrics"
	"risa/internal/sched"
	"risa/internal/units"
	"risa/internal/workload"
)

// Ablations beyond the paper (DESIGN.md §6). Each probes one design choice
// RISA makes, holding everything else fixed.

// RoundRobinAblation compares RISA with and without the round-robin rack
// rotation: the rotation is what keeps rack utilization uniform.
type RoundRobinAblation struct {
	// RackRAMStdDev is the standard deviation of per-rack RAM utilization
	// (percent) after statically placing the fill set.
	RackRAMStdDev map[string]float64
	// InterRack counts inter-rack placements during the fill.
	InterRack map[string]int
}

// RunRoundRobinAblation statically fills a fresh cluster with n typical
// VMs under both variants and measures the per-rack load spread.
func (s Setup) RunRoundRobinAblation(n int) (*RoundRobinAblation, error) {
	out := &RoundRobinAblation{
		RackRAMStdDev: make(map[string]float64),
		InterRack:     make(map[string]int),
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"RISA", core.Options{}},
		{"RISA-no-RR", core.Options{DisableRoundRobin: true, Name: "RISA-no-RR"}},
	}
	for _, v := range variants {
		st, err := s.NewState()
		if err != nil {
			return nil, err
		}
		r := core.NewWithOptions(st, v.opts)
		inter := 0
		for i := 0; i < n; i++ {
			vm := workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)}
			a, err := r.Schedule(vm)
			if err != nil {
				continue // full racks are part of the point
			}
			if a.InterRack() {
				inter++
			}
		}
		var s metrics.Summary
		for _, rack := range st.Cluster.Racks() {
			used := float64(rack.BoxesOf(units.RAM)[0].Capacity()*2 - rack.Free(units.RAM))
			cap := float64(rack.BoxesOf(units.RAM)[0].Capacity() * 2)
			s.Observe(used / cap * 100)
		}
		out.RackRAMStdDev[v.name] = s.StdDev()
		out.InterRack[v.name] = inter
	}
	return out, nil
}

// Render draws the ablation.
func (a *RoundRobinAblation) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: round-robin rack selection (static fill of typical VMs)\n")
	for _, name := range []string{"RISA", "RISA-no-RR"} {
		fmt.Fprintf(&b, "  %-11s per-rack RAM utilization stddev %6.2f pp, inter-rack %d\n",
			name, a.RackRAMStdDev[name], a.InterRack[name])
	}
	b.WriteString("  Round-robin keeps rack load uniform; pinning the cursor skews it.\n")
	return b.String()
}

// PackingAblation compares the four intra-rack packing policies on the
// synthetic workload.
type PackingAblation struct {
	Results map[string]packingOutcome
	Order   []string
}

type packingOutcome struct {
	Scheduled, Dropped, InterRack int
}

// RunPackingAblation replays the synthetic workload through RISA variants
// that differ only in box packing.
func (s Setup) RunPackingAblation() (*PackingAblation, error) {
	tr, err := s.SyntheticTrace()
	if err != nil {
		return nil, err
	}
	var jobs []Job
	for _, p := range []core.BoxPolicy{core.NextFit, core.BestFit, core.FirstFit, core.WorstFit} {
		opts := core.Options{Packing: p, Name: p.String()}
		jobs = append(jobs, Job{Setup: s, Algorithm: opts.Name, Trace: tr,
			Scheduler: func(st *sched.State) sched.Scheduler { return core.NewWithOptions(st, opts) }})
	}
	outcomes, err := Engine{}.RunChecked(jobs)
	if err != nil {
		return nil, err
	}
	out := &PackingAblation{Results: make(map[string]packingOutcome)}
	for _, o := range outcomes {
		res := o.Result
		out.Results[o.Job.Algorithm] = packingOutcome{
			Scheduled: res.Scheduled, Dropped: res.Dropped, InterRack: res.InterRack,
		}
		out.Order = append(out.Order, o.Job.Algorithm)
	}
	return out, nil
}

// Render draws the ablation.
func (a *PackingAblation) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: intra-rack packing policy (synthetic workload)\n")
	for _, name := range a.Order {
		o := a.Results[name]
		fmt.Fprintf(&b, "  %-9s scheduled %4d  dropped %3d  inter-rack %3d\n",
			name, o.Scheduled, o.Dropped, o.InterRack)
	}
	return b.String()
}

// UplinkSweep shows where fabric provisioning starts to gate scheduling:
// with few box uplinks, first-fit placement (NULB) strands compute behind
// saturated links and drops VMs, while RISA's rack rotation spreads flows.
type UplinkSweep struct {
	Uplinks []int
	// Dropped[alg][i] is the drop count at Uplinks[i].
	Dropped map[string][]int
}

// RunUplinkSweep replays Azure-3000 at several box-uplink counts; the
// uplink × algorithm grid runs on the worker pool.
func (s Setup) RunUplinkSweep(uplinks []int) (*UplinkSweep, error) {
	out := &UplinkSweep{Uplinks: uplinks, Dropped: make(map[string][]int)}
	algs := []string{"NULB", "RISA"}
	tr, err := s.AzureTrace(workload.Azure3000)
	if err != nil {
		return nil, err
	}
	var jobs []Job
	for _, u := range uplinks {
		setup := s
		setup.Network.BoxUplinks = u
		for _, alg := range algs {
			jobs = append(jobs, Job{Setup: setup, Algorithm: alg, Trace: tr})
		}
	}
	outcomes, err := Engine{}.RunChecked(jobs)
	if err != nil {
		return nil, err
	}
	for _, o := range outcomes {
		out.Dropped[o.Job.Algorithm] = append(out.Dropped[o.Job.Algorithm], o.Result.Dropped)
	}
	return out, nil
}

// Render draws the sweep.
func (a *UplinkSweep) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: box-uplink provisioning sweep (Azure-3000, dropped VMs)\n")
	b.WriteString("  uplinks/box ")
	for _, u := range a.Uplinks {
		fmt.Fprintf(&b, "%8d", u)
	}
	b.WriteString("\n")
	for _, alg := range []string{"NULB", "RISA"} {
		fmt.Fprintf(&b, "  %-11s ", alg)
		for _, d := range a.Dropped[alg] {
			fmt.Fprintf(&b, "%8d", d)
		}
		b.WriteString("\n")
	}
	b.WriteString("  Under-provisioned fabrics punish bandwidth-oblivious first-fit packing.\n")
	return b.String()
}

// AlphaSweep varies the MRR cell-sharing constant α of Equation 1 and
// reports the resulting peak optical power for RISA on Azure-3000.
type AlphaSweep struct {
	Alphas []float64
	PeakKW []float64
}

// RunAlphaSweep executes the sweep; one pooled job per α.
func (s Setup) RunAlphaSweep(alphas []float64) (*AlphaSweep, error) {
	out := &AlphaSweep{Alphas: alphas}
	tr, err := s.AzureTrace(workload.Azure3000)
	if err != nil {
		return nil, err
	}
	jobs := make([]Job, len(alphas))
	for i, alpha := range alphas {
		setup := s
		setup.Optics.Alpha = alpha
		jobs[i] = Job{Setup: setup, Algorithm: "RISA", Trace: tr}
	}
	outcomes, err := Engine{}.RunChecked(jobs)
	if err != nil {
		return nil, err
	}
	for _, o := range outcomes {
		out.PeakKW = append(out.PeakKW, o.Result.PeakPowerW/1000)
	}
	return out, nil
}

// Render draws the sweep.
func (a *AlphaSweep) Render() string {
	var bars []metrics.Bar
	for i, alpha := range a.Alphas {
		bars = append(bars, metrics.Bar{
			Label: fmt.Sprintf("α=%.2f", alpha),
			Value: a.PeakKW[i],
		})
	}
	return metrics.RenderBars(
		"Ablation: cell-sharing constant α vs peak optical power (RISA, Azure-3000)",
		bars, 40, "%.3f kW")
}

// BoxMixAblation varies the per-rack box mix and reports drops and
// inter-rack counts for NULB and RISA on Azure-3000 — the per-rack
// resource balance is what determines how often a single rack can host a
// whole VM.
type BoxMixAblation struct {
	Mixes   []string
	Dropped map[string][]int
	Inter   map[string][]int
}

// RunBoxMixAblation executes the ablation over {CPU,RAM,STO} box counts.
func (s Setup) RunBoxMixAblation() (*BoxMixAblation, error) {
	mixes := []struct {
		cpu, ram, sto int
	}{{2, 2, 2}, {1, 2, 3}, {2, 1, 3}, {3, 2, 1}}
	out := &BoxMixAblation{
		Dropped: make(map[string][]int),
		Inter:   make(map[string][]int),
	}
	tr, err := s.AzureTrace(workload.Azure3000)
	if err != nil {
		return nil, err
	}
	var jobs []Job
	for _, mix := range mixes {
		setup := s
		setup.Topology.CPUBoxes = mix.cpu
		setup.Topology.RAMBoxes = mix.ram
		setup.Topology.STOBoxes = mix.sto
		out.Mixes = append(out.Mixes, fmt.Sprintf("%dC/%dR/%dS", mix.cpu, mix.ram, mix.sto))
		for _, alg := range []string{"NULB", "RISA"} {
			jobs = append(jobs, Job{Setup: setup, Algorithm: alg, Trace: tr})
		}
	}
	outcomes, err := Engine{}.RunChecked(jobs)
	if err != nil {
		return nil, err
	}
	for _, o := range outcomes {
		out.Dropped[o.Job.Algorithm] = append(out.Dropped[o.Job.Algorithm], o.Result.Dropped)
		out.Inter[o.Job.Algorithm] = append(out.Inter[o.Job.Algorithm], o.Result.InterRack)
	}
	return out, nil
}

// Render draws the ablation.
func (a *BoxMixAblation) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: per-rack box mix (Azure-3000; dropped / inter-rack VMs)\n")
	b.WriteString("  mix         ")
	for _, m := range a.Mixes {
		fmt.Fprintf(&b, "%14s", m)
	}
	b.WriteString("\n")
	for _, alg := range []string{"NULB", "RISA"} {
		fmt.Fprintf(&b, "  %-11s ", alg)
		for i := range a.Mixes {
			fmt.Fprintf(&b, "%7d/%6d", a.Dropped[alg][i], a.Inter[alg][i])
		}
		b.WriteString("\n")
	}
	return b.String()
}
