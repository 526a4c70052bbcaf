package risa

import (
	"runtime"
	"testing"

	"risa/internal/experiments"
)

// TestMemoryPerBoxBudget pins the per-box heap footprint of a fully
// indexed scheduler state (topology + SoA free vectors + candidate trees
// + fabric + pools) at the hyperscale rungs: the budget in DESIGN.md §14
// is 2 KiB/box, measured ~1.7 KiB/box, and — the property that actually
// matters — flat in cluster size, so a 16384-rack/98304-box state stays
// under ~200 MB. A superlinear structure (per-box-pair tables, dense
// rack×rack matrices) blows the budget at the top rung long before it
// would OOM a laptop, which is the point of checking 1152 and 16384.
func TestMemoryPerBoxBudget(t *testing.T) {
	const budgetBytes = 2048
	for _, racks := range []int{1152, 16384} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		setup := experiments.DefaultSetup()
		setup.Topology.Racks = racks
		st, err := setup.NewState()
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		boxes := len(st.Cluster.Boxes())
		perBox := float64(after.HeapAlloc-before.HeapAlloc) / float64(boxes)
		t.Logf("racks=%d boxes=%d: %.0f B/box", racks, boxes, perBox)
		if perBox > budgetBytes {
			t.Errorf("racks=%d: %.0f B/box exceeds the %d B budget (DESIGN.md §14)",
				racks, perBox, budgetBytes)
		}
		runtime.KeepAlive(st)
	}
}
