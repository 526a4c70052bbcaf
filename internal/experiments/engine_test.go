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
	serial, err := Engine{Workers: 1}.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Engine{Workers: 8}.Run(jobs)
	if err != nil {
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

// TestEngineErrorIsolation checks that one bad job fails the grid with an
// error naming the job; that every other job still runs is
// TestForEachRunsAllReturnsFirst's.
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
	outcomes, err := Engine{Workers: 2}.Run(jobs)
	if err == nil || !strings.Contains(err.Error(), "no-such-algorithm on "+tr.Name) {
		t.Errorf("Run = %v, want the bad job named", err)
	}
	if outcomes != nil {
		t.Errorf("a failed grid returned %d outcomes", len(outcomes))
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
	if out, err := (Engine{}).Run(nil); len(out) != 0 || err != nil {
		t.Errorf("empty grid returned %d outcomes, error %v", len(out), err)
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
