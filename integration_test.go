package risa

import (
	"bytes"
	"reflect"
	"testing"

	"risa/internal/experiments"
	"risa/internal/report"
	"risa/internal/trace"
	"risa/internal/units"
	"risa/internal/workload"
)

// TestEndToEndPipeline exercises the full user journey: generate a
// workload, archive it as CSV, replay it through every scheduler, and
// archive the results as a JSON report — asserting cross-module
// consistency at each step.
func TestEndToEndPipeline(t *testing.T) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.N = 300
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// CSV round trip.
	var csvBuf bytes.Buffer
	if err := trace.Write(&csvBuf, tr); err != nil {
		t.Fatal(err)
	}
	replayed, err := trace.Read(&csvBuf, tr.Name)
	if err != nil {
		t.Fatal(err)
	}

	// Simulation across all algorithms, both trace copies.
	setup := experiments.DefaultSetup()
	doc := report.NewDocument(setup.Seed)
	for _, alg := range experiments.Algorithms {
		direct, err := setup.RunOne(alg, tr)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		fromCSV, err := setup.RunOne(alg, replayed)
		if err != nil {
			t.Fatalf("%s replay: %v", alg, err)
		}
		if direct.InterRack != fromCSV.InterRack || direct.Scheduled != fromCSV.Scheduled ||
			direct.PeakPowerW != fromCSV.PeakPowerW {
			t.Errorf("%s: CSV replay diverged from direct run", alg)
		}
		doc.Add(direct)
	}

	// JSON round trip.
	var jsonBuf bytes.Buffer
	if err := doc.Write(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	got, err := report.Read(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(experiments.Algorithms) {
		t.Errorf("archived %d runs, want %d", len(got.Runs), len(experiments.Algorithms))
	}
	run, ok := got.Runs["synthetic/RISA"]
	if !ok {
		t.Fatal("RISA run missing from archive")
	}
	if run.Scheduled != 300 {
		t.Errorf("archived scheduled = %d", run.Scheduled)
	}
}

// TestCSVReplayMatchesDirectRun: the default synthetic trace archived as
// CSV and read back replays through RISA to the direct run's Result, field
// for field; only SchedulingTime, a wall clock, may differ.
func TestCSVReplayMatchesDirectRun(t *testing.T) {
	setup := experiments.DefaultSetup()
	tr, err := setup.SyntheticTrace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	replayed, err := trace.Read(&buf, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := setup.RunOne("RISA", tr)
	if err != nil {
		t.Fatal(err)
	}
	fromCSV, err := setup.RunOne("RISA", replayed)
	if err != nil {
		t.Fatal(err)
	}
	direct.SchedulingTime, fromCSV.SchedulingTime = 0, 0
	if !reflect.DeepEqual(direct, fromCSV) {
		t.Errorf("CSV replay diverged from the direct run:\n direct %+v\nreplayed %+v", direct, fromCSV)
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
	setup := experiments.DefaultSetup()
	results, err := setup.RunAll(tr)
	if err != nil {
		t.Fatal(err)
	}
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
