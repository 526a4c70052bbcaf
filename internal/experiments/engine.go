package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"risa/internal/power"
	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/workload"
)

// defaultWorkers holds the package-wide worker-pool width used by every
// grid helper (RunAll, RunAzureMatrix, RunSeedSweep, the sweeps). Zero
// means "one worker per available CPU"; cmd/risasim's -parallel flag sets
// it explicitly.
var defaultWorkers atomic.Int32

// SetParallelism fixes the number of workers grid helpers use; n ≤ 0
// restores the default (GOMAXPROCS). SetParallelism(1) makes every grid
// strictly serial, which is occasionally useful for profiling one run.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// Parallelism reports the worker-pool width grid helpers currently use.
func Parallelism() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Job is one cell of an experiment grid: one scheduler replaying one trace
// on a fresh datacenter built from the setup. Because every job builds its
// own State, jobs never share mutable simulator state and a grid is
// embarrassingly parallel.
type Job struct {
	Setup     Setup
	Algorithm string
	Trace     *workload.Trace
	// Sim is the run's configuration (retry queue, fault plan, …). Its
	// PowerModel is always built from Setup.Optics, whatever it holds.
	Sim sim.Config
	// Scheduler, when non-nil, builds the scheduler on the job's fresh
	// state instead of the registry lookup of Algorithm — for variants the
	// registry does not name (the packing policies).
	Scheduler func(*sched.State) sched.Scheduler
}

// run is the one place an experiment's simulation is assembled: state,
// scheduler, power model, runner, replay.
func (j Job) run() Outcome {
	fail := func(err error) Outcome { return Outcome{Job: j, Err: err} }
	st, err := j.Setup.NewState()
	if err != nil {
		return fail(err)
	}
	var sch sched.Scheduler
	if j.Scheduler != nil {
		sch = j.Scheduler(st)
	} else if sch, err = NewScheduler(j.Algorithm, st); err != nil {
		return fail(err)
	}
	cfg := j.Sim
	if cfg.PowerModel, err = power.NewModel(j.Setup.Optics); err != nil {
		return fail(err)
	}
	runner, err := sim.NewRunner(st, sch, cfg)
	if err != nil {
		return fail(err)
	}
	res, err := runner.Run(j.Trace)
	return Outcome{Job: j, Scheduler: sch, Result: res, Err: err}
}

// Outcome pairs a job with the scheduler instance it ran (whose decision
// counters outlive the run) and its simulation result or error.
type Outcome struct {
	Job       Job
	Scheduler sched.Scheduler
	Result    *sim.Result
	Err       error
}

// Engine executes experiment grids on a bounded worker pool. The zero
// Engine uses the package parallelism (see SetParallelism).
type Engine struct {
	// Workers is the pool width; ≤ 0 means the package default.
	Workers int
}

// Run executes every job and returns the outcomes in job order. All jobs
// run regardless of individual failures; callers decide whether one error
// poisons the grid (FirstError helps). Results are deterministic and
// independent of the pool width because no state is shared between jobs.
func (e Engine) Run(jobs []Job) []Outcome {
	out := make([]Outcome, len(jobs))
	// Job errors travel in the outcomes, so the tasks themselves never fail.
	_ = e.ForEach(len(jobs), func(i int) error {
		out[i] = jobs[i].run()
		return nil
	})
	return out
}

// RunChecked executes every job and fails on the first job error, so
// callers folding the outcomes may dereference every Result
// unconditionally.
func (e Engine) RunChecked(jobs []Job) ([]Outcome, error) {
	outcomes := e.Run(jobs)
	if err := FirstError(outcomes); err != nil {
		return nil, err
	}
	return outcomes, nil
}

// ForEach runs task(0..n-1) on the engine's worker pool and blocks until
// all have returned: every task runs whatever the others return, and the
// error of the lowest-index failed task comes back (nil when none failed),
// so the result does not depend on the pool width. Tasks must be
// independent; they run in arbitrary order.
func (e Engine) ForEach(n int, task func(i int) error) error {
	workers := e.Workers
	if workers <= 0 {
		workers = Parallelism()
	}
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = task(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FirstError returns the first failed outcome's error, annotated with the
// job that produced it, or nil when the whole grid succeeded.
func FirstError(outcomes []Outcome) error {
	for _, o := range outcomes {
		if o.Err != nil {
			return fmt.Errorf("%s on %s: %w", o.Job.Algorithm, o.Job.Trace.Name, o.Err)
		}
	}
	return nil
}
