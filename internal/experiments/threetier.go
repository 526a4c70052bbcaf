package experiments

import (
	"fmt"
	"strings"

	"risa/internal/sim"
	"risa/internal/workload"
)

// ThreeTier is an extension beyond the paper: the same Azure workload on
// the paper's two-tier fabric and on the three-tier pod fabric of Shabka
// & Zervas (the paper's related-work contrast, its ref [17], with 18
// racks grouped into 3 pods of 6). The paper argues the two-tier
// scheduling problem is different; this experiment shows what changes:
// the baselines' inter-rack placements split into cheap intra-pod and
// expensive inter-pod ones, while RISA's all-intra-rack placements are
// oblivious to the extra tier.
type ThreeTier struct {
	RacksPerPod   int
	TwoTier, Pods map[string]*sim.Result
}

// RunThreeTier executes both fabric variants on Azure-3000, as one pooled
// grid; the halves differ only in the fabric's pod size.
func (s Setup) RunThreeTier() (*ThreeTier, error) {
	tr, err := s.AzureTrace(workload.Azure3000)
	if err != nil {
		return nil, err
	}
	out := &ThreeTier{RacksPerPod: 6}
	podSetup := s
	podSetup.Network.RacksPerPod = out.RacksPerPod
	jobs := make([]Job, 0, 2*len(Algorithms))
	for _, setup := range []Setup{s, podSetup} {
		for _, alg := range Algorithms {
			jobs = append(jobs, Job{Setup: setup, Algorithm: alg, Trace: tr})
		}
	}
	outcomes, err := Engine{}.Run(jobs)
	if err != nil {
		return nil, err
	}
	out.TwoTier = make(map[string]*sim.Result, len(Algorithms))
	out.Pods = make(map[string]*sim.Result, len(Algorithms))
	for k, o := range outcomes {
		half := out.TwoTier
		if k >= len(Algorithms) {
			half = out.Pods
		}
		half[o.Job.Algorithm] = o.Result
	}
	return out, nil
}

// Render draws the comparison.
func (tt *ThreeTier) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: two-tier vs three-tier fabric (Azure-3000, pods of %d racks)\n", tt.RacksPerPod)
	fmt.Fprintf(&b, "  %-8s %26s %32s\n", "algo", "two-tier inter-rack/power", "three-tier inter-rack/pod/power")
	for _, alg := range Algorithms {
		two, three := tt.TwoTier[alg], tt.Pods[alg]
		fmt.Fprintf(&b, "  %-8s %15d / %5.2f kW %17d / %4d / %5.2f kW\n",
			alg, two.InterRack, two.PeakPowerW/1000,
			three.InterRack, three.InterPod, three.PeakPowerW/1000)
	}
	b.WriteString("  RISA's placements never leave a rack, so the extra tier changes\n")
	b.WriteString("  nothing for it; the baselines pay more power for every placement\n")
	b.WriteString("  that happens to cross pods (8 link hops, 3 large switches).\n")
	return b.String()
}
