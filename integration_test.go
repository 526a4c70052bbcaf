package risa

import (
	"testing"

	"risa/internal/experiments"
	"risa/internal/units"
	"risa/internal/workload"
)

// TestEndToEndPipeline exercises the full user journey: generate a
// workload and run it through every scheduler, each on a fresh
// datacenter.
func TestEndToEndPipeline(t *testing.T) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.N = 300
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := experiments.DefaultSetup().RunMatrix(tr)
	if err != nil {
		t.Fatal(err)
	}
	results := m.Rows[0].Results
	for _, alg := range experiments.Algorithms {
		if got := results[alg].Scheduled; got != 300 {
			t.Errorf("%s scheduled %d, want 300", alg, got)
		}
	}
}

// TestCrossAlgorithmConsistency: when nobody drops, all four algorithms
// consume identical total compute (placement differs, usage cannot).
func TestCrossAlgorithmConsistency(t *testing.T) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.N = 150
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := experiments.DefaultSetup().RunMatrix(tr)
	if err != nil {
		t.Fatal(err)
	}
	results := m.Rows[0].Results
	base := results["NULB"]
	for _, alg := range experiments.Algorithms {
		r := results[alg]
		if r.Dropped != 0 {
			t.Fatalf("%s dropped on a light workload", alg)
		}
		for _, k := range units.Resources() {
			if r.PeakUtil[k] != base.PeakUtil[k] {
				t.Errorf("%s peak %v util %.4f != NULB %.4f", alg, k, r.PeakUtil[k], base.PeakUtil[k])
			}
		}
		if r.PeakIntraUtil != base.PeakIntraUtil {
			t.Errorf("%s intra util differs", alg)
		}
	}
}
