package experiments

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestEngineDeterministicAcrossWidths re-runs the same algorithm grid
// serially and on a wide pool: every job builds its own State, so the
// results must be bit-identical whatever the parallelism.
func TestEngineDeterministicAcrossWidths(t *testing.T) {
	setup := DefaultSetup()
	tr, err := setup.SyntheticTrace()
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for _, alg := range Algorithms {
		jobs = append(jobs, Job{Setup: setup, Algorithm: alg, Trace: tr})
	}
	serial := Engine{Workers: 1}.Run(jobs)
	wide := Engine{Workers: 8}.Run(jobs)
	if err := FirstError(serial); err != nil {
		t.Fatal(err)
	}
	if err := FirstError(wide); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		s, w := serial[i].Result, wide[i].Result
		if s.Algorithm != jobs[i].Algorithm || w.Algorithm != jobs[i].Algorithm {
			t.Errorf("job %d: outcome order broken: %s / %s / want %s",
				i, s.Algorithm, w.Algorithm, jobs[i].Algorithm)
		}
		if s.Scheduled != w.Scheduled || s.Dropped != w.Dropped ||
			s.InterRack != w.InterRack || s.PeakPowerW != w.PeakPowerW {
			t.Errorf("%s: serial and parallel runs disagree: %+v vs %+v",
				jobs[i].Algorithm, s, w)
		}
	}
}

// TestEngineErrorIsolation checks that one bad job neither aborts the
// grid nor contaminates its neighbours, and that FirstError names it.
func TestEngineErrorIsolation(t *testing.T) {
	setup := DefaultSetup()
	tr, err := setup.SyntheticTrace()
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{Setup: setup, Algorithm: "RISA", Trace: tr},
		{Setup: setup, Algorithm: "no-such-algorithm", Trace: tr},
		{Setup: setup, Algorithm: "NULB", Trace: tr},
	}
	outcomes := Engine{Workers: 2}.Run(jobs)
	if outcomes[0].Err != nil || outcomes[0].Result == nil {
		t.Errorf("healthy job 0 failed: %v", outcomes[0].Err)
	}
	if outcomes[1].Err == nil {
		t.Error("bad algorithm should fail")
	}
	if outcomes[2].Err != nil || outcomes[2].Result == nil {
		t.Errorf("healthy job 2 failed: %v", outcomes[2].Err)
	}
	ferr := FirstError(outcomes)
	if ferr == nil || !strings.Contains(ferr.Error(), "no-such-algorithm") {
		t.Errorf("FirstError = %v, want the bad job named", ferr)
	}
}

// TestForEachRunsAllReturnsFirst: a failing task stops nothing — every
// task still runs — and the error that comes back is the lowest-index
// one, whatever the pool width.
func TestForEachRunsAllReturnsFirst(t *testing.T) {
	errs := map[int]error{2: errors.New("task 2"), 5: errors.New("task 5")}
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := Engine{Workers: workers}.ForEach(8, func(i int) error {
			ran.Add(1)
			return errs[i]
		})
		if ran.Load() != 8 {
			t.Errorf("%d workers: %d of 8 tasks ran", workers, ran.Load())
		}
		if err != errs[2] {
			t.Errorf("%d workers: ForEach = %v, want task 2's error", workers, err)
		}
	}
	if err := (Engine{}).ForEach(0, func(int) error { return errors.New("ran") }); err != nil {
		t.Errorf("empty ForEach = %v", err)
	}
}

// TestEngineEmptyGrid makes sure a zero-job grid is a no-op.
func TestEngineEmptyGrid(t *testing.T) {
	if out := (Engine{}).Run(nil); len(out) != 0 {
		t.Errorf("empty grid returned %d outcomes", len(out))
	}
	if err := FirstError(nil); err != nil {
		t.Errorf("FirstError(nil) = %v", err)
	}
}

// TestSetParallelism exercises the package-wide knob the -parallel flag
// drives.
func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Errorf("Parallelism = %d, want 3", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Errorf("default Parallelism = %d, want ≥ 1", got)
	}
	SetParallelism(-5)
	if got := Parallelism(); got < 1 {
		t.Errorf("negative SetParallelism should restore the default, got %d", got)
	}
}
