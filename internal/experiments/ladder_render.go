package experiments

import (
	"fmt"
	"strings"
	"time"

	"risa/internal/sim"
	"risa/internal/units"
	"risa/internal/workload"
)

// RenderChurn draws the churn ladder as one table per utilization rung.
func (l *Ladder) RenderChurn() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Steady-state churn: open-ended synthetic stream, fixed %d tu lifetimes, %d racks, %d-arrival budget per cell",
		workload.DefaultSyntheticConfig().LifetimeBase, l.Setup.Topology.Racks, l.Config.Arrivals)
	if l.Config.Duration > 0 {
		fmt.Fprintf(&b, " (time-capped at %d tu)", l.Config.Duration)
	}
	b.WriteString("\n")
	b.WriteString("(metrics exclude warmup; acc%/win is mean over complete windows, with the worst window in parentheses;\n")
	b.WriteString(" latency percentiles and placements/s are wall-clock — regenerate with -parallel 1 for honest timings)\n")
	for _, cell := range l.Cells {
		if cell.Algorithm == Algorithms[0] {
			fmt.Fprintf(&b, "rung %-9s target %.0f%% binding utilization\n", cell.Util.Label, cell.Util.Target*100)
			fmt.Fprintf(&b, "  %-8s %9s %7s %6s %17s %5s %14s %21s %9s\n",
				"alg", "arrivals", "accept%", "drops", "util C/R/S %", "wins", "acc%/win", "p50/p95/p99 decision", "place/s")
		}
		r := cell.Result
		meanWin, minWin := windowAcceptance(r.Windows)
		fmt.Fprintf(&b, "  %-8s %9d %7.2f %6d %5.1f/%4.1f/%4.1f %5d %6.1f (%5.1f) %6s/%6s/%6s %9.0f\n",
			cell.Algorithm, r.Arrivals, r.AcceptancePct(), r.Dropped,
			r.AvgUtil[units.CPU], r.AvgUtil[units.RAM], r.AvgUtil[units.Storage],
			len(r.Windows), meanWin, minWin,
			shortDur(r.LatencyP50), shortDur(r.LatencyP95), shortDur(r.LatencyP99),
			r.PlacementsPerSec())
	}
	return b.String()
}

// RenderFaults draws the availability ladder as one table per (fault
// rung, utilization rung).
func (l *Ladder) RenderFaults() string {
	var b strings.Builder
	mode := "keep-running (VMs ride out outages in place)"
	if l.Config.Evict {
		mode = "evict (displaced VMs re-place through the scheduler)"
	}
	fmt.Fprintf(&b, "Availability ladder: box-tier MTBF × utilization, %d racks, %d tu per cell, policy: %s\n",
		l.Setup.Topology.Racks, l.Config.Duration, mode)
	b.WriteString("(metrics exclude warmup; acc%/win is mean over complete windows with the worst window in parentheses;\n")
	b.WriteString(" displ/rec/lost count displaced VMs; re-place p95 is wall-clock — regenerate with -parallel 1 for honest timings)\n")
	for i, cell := range l.Cells {
		if cell.Algorithm == Algorithms[0] {
			faultHeader(&b, i, cell)
			fmt.Fprintf(&b, "  %-8s %9s %7s %14s %6s %6s %6s %12s %17s\n",
				"alg", "arrivals", "accept%", "acc%/win", "displ", "rec", "lost", "re-place p95", "util C/R/S %")
		}
		r := cell.Result
		meanWin, minWin := windowAcceptance(r.Windows)
		fmt.Fprintf(&b, "  %-8s %9d %7.2f %6.1f (%5.1f) %6d %6d %6d %12s %5.1f/%4.1f/%4.1f\n",
			cell.Algorithm, r.Arrivals, r.AcceptancePct(), meanWin, minWin,
			r.Displaced, r.Recovered, r.DisplacedLost, shortDur(r.ReplaceP95),
			r.AvgUtil[units.CPU], r.AvgUtil[units.RAM], r.AvgUtil[units.Storage])
	}
	return b.String()
}

// RenderSLO draws the SLO ladder as one table per (fault rung, utilization
// rung): per-tier acceptance with tier 0 graded against SLOTargetPct,
// preemption volume, and tier 0's worst complete window. Per-tier decision
// latency follows on lines prefixed "wall " — they are wall-clock
// observations, the only non-deterministic part of the report, so
// determinism checks can strip them with a one-word filter.
func (l *Ladder) RenderSLO() string {
	var b strings.Builder
	w := l.Config.Tiers.Weights
	fmt.Fprintf(&b, "SLO ladder: priority mix %.0f/%.0f/%.0f%% (tier 0 highest) × fault rung × utilization, %d racks, %d tu per cell\n",
		w[0]*100, w[1]*100, w[2]*100, l.Setup.Topology.Racks, l.Config.Duration)
	b.WriteString("(evict+retry+preempt on everywhere; preemption displaces strictly-lower-tier VMs when a higher-tier arrival\n")
	fmt.Fprintf(&b, " fails both placement tiers; t0 graded against a %.1f%% acceptance SLO; worst-win is tier 0's worst complete window)\n", SLOTargetPct)
	for i, cell := range l.Cells {
		if cell.Algorithm == Algorithms[0] {
			faultHeader(&b, i, cell)
			fmt.Fprintf(&b, "  %-8s %8s %8s %8s %5s %9s %9s %9s %11s\n",
				"alg", "t0-acc%", "t1-acc%", "t2-acc%", "slo", "preempted", "recovered", "lost", "t0worst-win")
		}
		r := cell.Result
		verdict := "MISS"
		t0 := r.Tiers[0].AcceptancePct()
		if t0 >= SLOTargetPct {
			verdict = "meet"
		}
		fmt.Fprintf(&b, "  %-8s %8.3f %8.3f %8.3f %5s %9d %9d %9d %11.1f\n",
			cell.Algorithm, t0, r.Tiers[1].AcceptancePct(), r.Tiers[2].AcceptancePct(),
			verdict, r.Preempted, r.PreemptRecovered, r.PreemptLost,
			worstTierWindow(r.Windows, 0))
		for t := range r.Tiers {
			ts := &r.Tiers[t]
			if ts.LatencySamples == 0 {
				continue
			}
			fmt.Fprintf(&b, "wall   %s t%d decision p50/p95/p99 %s/%s/%s (%d samples)\n",
				cell.Algorithm, t, shortDur(ts.LatencyP50), shortDur(ts.LatencyP95), shortDur(ts.LatencyP99), ts.LatencySamples)
		}
	}
	return b.String()
}

// faultHeader opens the i-th cell's (fault rung, utilization rung) table
// in the availability and SLO reports.
func faultHeader(b *strings.Builder, i int, cell Cell) {
	if i > 0 {
		b.WriteString("\n")
	}
	if cell.Fault.MTBF == 0 {
		fmt.Fprintf(b, "rung %-6s (no faults) · target %.0f%%\n", cell.Fault.Label, cell.Util.Target*100)
	} else {
		fmt.Fprintf(b, "rung %-6s (box MTBF %d, MTTR %d) · target %.0f%%\n",
			cell.Fault.Label, cell.Fault.MTBF, cell.Fault.MTTR, cell.Util.Target*100)
	}
}

// windowAcceptance summarizes per-window acceptance: mean and minimum
// over the complete windows (100/100 when there are none).
func windowAcceptance(windows []sim.WindowStats) (mean, min float64) {
	if len(windows) == 0 {
		return 100, 100
	}
	min = 100
	for _, w := range windows {
		a := w.AcceptancePct()
		mean += a
		if a < min {
			min = a
		}
	}
	return mean / float64(len(windows)), min
}

// worstTierWindow returns the minimum per-window acceptance of a tier
// over the complete windows (100 when the tier saw no windowed arrivals).
func worstTierWindow(windows []sim.WindowStats, tier int) float64 {
	min := 100.0
	for _, w := range windows {
		if w.TierArrivals[tier] == 0 {
			continue
		}
		if a := w.TierAcceptancePct(tier); a < min {
			min = a
		}
	}
	return min
}

// shortDur renders a decision latency compactly (µs with one decimal).
func shortDur(d time.Duration) string {
	return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
}
