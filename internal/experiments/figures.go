package experiments

import (
	"fmt"
	"strings"

	"risa/internal/metrics"
	"risa/internal/sim"
	"risa/internal/units"
	"risa/internal/workload"
)

// bars draws one bar group per trace of the matrix, a bar per algorithm
// valued by value and printed with format. A matrix of one trace draws
// its group under title itself; otherwise title heads a group per trace.
func (m *Matrix) bars(title, format string, value func(*sim.Result) float64) string {
	var b strings.Builder
	if len(m.Rows) != 1 {
		b.WriteString(title + "\n")
	}
	for _, row := range m.Rows {
		bars := make([]metrics.Bar, len(Algorithms))
		for i, alg := range Algorithms {
			bars[i] = metrics.Bar{Label: alg, Value: value(row.Results[alg])}
		}
		label := "  " + row.Trace
		if len(m.Rows) == 1 {
			label = title
		}
		b.WriteString(metrics.RenderBars(label, bars, 40, format))
	}
	return b.String()
}

// schedulingMS is a run's wall-clock time inside Schedule calls, in ms.
func schedulingMS(r *sim.Result) float64 { return float64(r.SchedulingTime.Microseconds()) / 1000 }

// RenderFig5 draws Figure 5 from the synthetic matrix: the number of
// inter-rack VM assignments of the four algorithms, plus the prose
// utilization numbers of §5.1.
func (m *Matrix) RenderFig5() string {
	var b strings.Builder
	b.WriteString(m.bars("Figure 5: Number of inter-rack VM assignments (synthetic workload)", "%.0f",
		func(r *sim.Result) float64 { return float64(r.InterRack) }))
	b.WriteString("\n§5.1 prose numbers (time-averaged utilization, %):\n")
	for _, row := range m.Rows {
		for _, alg := range Algorithms {
			r := row.Results[alg]
			fmt.Fprintf(&b, "  %-8s CPU %.2f  RAM %.2f  STO %.2f  (scheduled %d, dropped %d)\n",
				alg, r.AvgUtil[units.CPU], r.AvgUtil[units.RAM], r.AvgUtil[units.Storage],
				r.Scheduled, r.Dropped)
		}
	}
	return b.String()
}

// Fig6 reproduces Figure 6: the CPU and RAM request histograms of the
// three Azure-like workloads.
type Fig6 struct {
	Traces []*workload.Trace
}

// RunFig6 generates the three practical workloads.
func (s Setup) RunFig6() (*Fig6, error) {
	traces, err := s.AzureTraces()
	if err != nil {
		return nil, err
	}
	return &Fig6{Traces: traces}, nil
}

// Render draws per-subset CPU and RAM histograms.
func (f *Fig6) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: CPU and RAM distribution of the Azure-like traces\n\n")
	for _, tr := range f.Traces {
		for _, res := range []units.Resource{units.CPU, units.RAM} {
			var bars []metrics.Bar
			for _, vc := range tr.Histogram(res) {
				bars = append(bars, metrics.Bar{
					Label: fmt.Sprintf("%d %s", vc.Value, res.Native()),
					Value: float64(vc.Count),
				})
			}
			b.WriteString(metrics.RenderBars(
				fmt.Sprintf("%s — %v requests", tr.Name, res), bars, 40, "%.0f"))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFig7 draws Figure 7 from the Azure matrix: percentage of
// inter-rack VM assignments per workload and algorithm.
func (m *Matrix) RenderFig7() string {
	return m.bars("Figure 7: Percentage of inter-rack VM assignments", "%.2f%%",
		func(r *sim.Result) float64 { return r.InterRackPct })
}

// RenderFig8 draws Figure 8 from the Azure matrix: intra- and inter-rack
// network utilization.
func (m *Matrix) RenderFig8() string {
	return "Figure 8: Network utilization (peak, %)\n" +
		m.bars("Intra-rack network utilization:", "%.2f%%", func(r *sim.Result) float64 { return r.PeakIntraUtil }) +
		m.bars("Inter-rack network utilization:", "%.2f%%", func(r *sim.Result) float64 { return r.PeakInterUtil })
}

// RenderFig9 draws Figure 9 from the Azure matrix: peak power consumption
// of optical components.
func (m *Matrix) RenderFig9() string {
	return m.bars("Figure 9: Power consumption for optical components (peak, kW)", "%.3f kW",
		func(r *sim.Result) float64 { return r.PeakPowerW / 1000 })
}

// RenderFig10 draws Figure 10 from the Azure matrix: average CPU-RAM
// round-trip latency.
func (m *Matrix) RenderFig10() string {
	return m.bars("Figure 10: Average CPU-RAM round-trip delay (ns)", "%.0f ns",
		func(r *sim.Result) float64 { return float64(r.MeanCPURAMLatency.Nanoseconds()) })
}

// RenderFig11 draws Figure 11 from the synthetic matrix: scheduler
// execution time (wall-clock spent inside Schedule calls).
func (m *Matrix) RenderFig11() string {
	return m.bars("Figure 11: Execution time of synthetic workload (ms of scheduling)", "%.2f ms", schedulingMS)
}

// RenderFig12 draws Figure 12 from the Azure matrix: scheduler execution
// time on the practical workloads.
func (m *Matrix) RenderFig12() string {
	return m.bars("Figure 12: Execution time of practical workload (ms of scheduling)", "%.2f ms", schedulingMS)
}
