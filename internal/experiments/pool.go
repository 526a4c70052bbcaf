package experiments

import (
	"fmt"
	"strings"
)

// RenderPool draws the §5.3 check from the matrices' RISA and RISA-BF
// decision counters, one block per trace in order. The paper claims: "in
// practice, INTRA_RACK_POOL is not always empty. In fact for the
// simulation results discussed in preceding subsections, INTRA_RACK_POOL
// was never empty" — i.e. RISA never had to fall back to NULB on either
// workload family. The counters come from the headline runs themselves
// (the synthetic and the Azure matrix), so departures happen exactly as
// in the figures.
func RenderPool(ms ...*Matrix) string {
	var b strings.Builder
	b.WriteString("§5.3 check: INTRA_RACK_POOL occupancy during the headline runs\n")
	fmt.Fprintf(&b, "  %-12s %-8s %10s %10s %10s %10s %8s\n",
		"workload", "variant", "intra", "super-rack", "pool-empty", "net-gated", "dropped")
	for _, m := range ms {
		for _, row := range m.Rows {
			for _, variant := range []string{"RISA", "RISA-BF"} {
				s := row.Stats[variant]
				fmt.Fprintf(&b, "  %-12s %-8s %10d %10d %10d %10d %8d\n",
					row.Trace, variant, s.IntraRack, s.SuperRack, s.PoolEmpty, s.NetGated, s.Dropped)
			}
		}
	}
	b.WriteString("  Paper claim: the pool was never empty. It holds exactly on every\n")
	b.WriteString("  Azure workload; on the synthetic workload RISA sees one pool-empty\n")
	b.WriteString("  arrival — the same VM that is its single inter-rack assignment in\n")
	b.WriteString("  Figure 5.\n")
	return b.String()
}
