package experiments

import (
	"strings"
	"testing"

	"risa/internal/workload"
)

// The §5.3 verification: INTRA_RACK_POOL is never empty on the Azure
// workloads, so RISA never takes the SUPER_RACK fallback there.
func TestPoolOccupancyNeverEmptyOnAzure(t *testing.T) {
	if testing.Short() {
		t.Skip("reads the synthetic and Azure matrices")
	}
	synthetic, err := syntheticMatrix()
	if err != nil {
		t.Fatal(err)
	}
	azure, err := azureMatrix()
	if err != nil {
		t.Fatal(err)
	}
	for i, sub := range workload.Subsets() {
		for _, variant := range []string{"RISA", "RISA-BF"} {
			s := azure.Rows[i].Stats[variant]
			if s.PoolEmpty != 0 || s.SuperRack != 0 {
				t.Errorf("%v/%s: pool-empty=%d super-rack=%d, want 0/0",
					sub, variant, s.PoolEmpty, s.SuperRack)
			}
			if s.Dropped != 0 {
				t.Errorf("%v/%s dropped %d", sub, variant, s.Dropped)
			}
			spec, _ := workload.Spec(sub)
			if s.IntraRack != spec.N {
				t.Errorf("%v/%s intra-rack placements = %d, want %d",
					sub, variant, s.IntraRack, spec.N)
			}
		}
	}
	// The synthetic workload's single RISA inter-rack VM (Figure 5) is a
	// pool-empty arrival served by the SUPER_RACK path.
	synth := synthetic.Rows[0].Stats["RISA"]
	if synth.PoolEmpty+synth.NetGated != synth.SuperRack+synth.Dropped {
		t.Errorf("fallback accounting inconsistent: %+v", synth)
	}
	out := RenderPool(synthetic, azure)
	if !strings.Contains(out, "INTRA_RACK_POOL") || !strings.Contains(out, "synthetic") {
		t.Error("render incomplete")
	}
}
