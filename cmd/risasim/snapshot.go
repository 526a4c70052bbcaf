// Snapshot/restore: crash-recovery for long churn runs. -snapshot warms
// one RISA churn cell to the warmup boundary, saves the warm state to a
// file, then finishes the run; -restore skips the warmup entirely by
// resuming the saved state. Both print the same deterministic metrics
// table (wall-clock lines are prefixed "wall" so tooling can strip
// them), which is how CI checks the two paths agree.
package main

import (
	"encoding/gob"
	"fmt"
	"os"
	"strings"

	"risa/internal/experiments"
	"risa/internal/sim"
	"risa/internal/units"
	"risa/internal/workload"
)

// snapshotFile is the on-disk format of -snapshot: the warm snapshot
// plus every parameter needed to rebuild the identical cell on restore.
// Restore trusts the file, not the command line — a snapshot resumed
// under different topology or stream parameters would silently diverge.
type snapshotFile struct {
	Target   float64
	Arrivals int
	Duration int64
	Warmup   int64
	Window   int64
	Seed     int64
	Racks    int
	Uplinks  int
	Snap     *sim.Snapshot
}

// snapshotCell describes the one churn cell the -snapshot/-restore pair
// runs: RISA at the -target-util rung (default 0.75), time-capped by
// -duration (default 100 000 tu).
func snapshotCell(o options) snapshotFile {
	f := snapshotFile{
		Target:   o.targetUtil,
		Arrivals: 100000,
		Duration: o.duration,
		Seed:     o.seed,
		Racks:    o.racks,
		Uplinks:  o.uplinks,
	}
	if f.Target == 0 {
		f.Target = 0.75
	}
	if f.Duration == 0 {
		f.Duration = 100000
	}
	f.Warmup, f.Window = experiments.ChurnPhases(f.Duration)
	return f
}

// setupFor rebuilds the experiment setup a snapshot file describes.
func (f snapshotFile) setupFor() experiments.Setup {
	setup := experiments.DefaultSetup()
	setup.Seed = f.Seed
	setup.Topology.Racks = f.Racks
	if f.Uplinks > 0 {
		setup.Network.BoxUplinks = f.Uplinks
	}
	return setup
}

// resume builds the file's cell afresh and resumes snap on it to the end
// of the budget.
func (f snapshotFile) resume(snap *sim.Snapshot) (*sim.SteadyState, error) {
	runner, stream, err := f.setupFor().NewCell("RISA", f.Target, workload.TierMix{}, sim.Faults{})
	if err != nil {
		return nil, err
	}
	return runner.ResumeStream(stream, snap, f.streamCfg())
}

// streamCfg returns the cell's full-run stream configuration.
func (f snapshotFile) streamCfg() sim.StreamConfig {
	return sim.StreamConfig{
		Workload: sim.StreamWorkload{MaxArrivals: f.Arrivals, Duration: f.Duration},
		Windows:  sim.StreamWindows{Warmup: f.Warmup, Window: f.Window},
	}
}

// runSnapshotSave implements -snapshot: warm the cell under RISA to the
// warmup boundary, write the snapshot to path, then resume it in-process
// to the end of the budget and print the metrics table.
func runSnapshotSave(o options, path string) error {
	f := snapshotCell(o)
	warmCfg := f.streamCfg()
	warmCfg.Snapshot.At = f.Warmup
	runner, stream, err := f.setupFor().NewCell("RISA", f.Target, workload.TierMix{}, sim.Faults{})
	if err != nil {
		return fmt.Errorf("-snapshot: %w", err)
	}
	snap, err := runner.WarmStream(stream, warmCfg)
	if err != nil {
		return fmt.Errorf("-snapshot: %w", err)
	}
	f.Snap = snap
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-snapshot: %w", err)
	}
	if err := gob.NewEncoder(out).Encode(f); err != nil {
		out.Close()
		return fmt.Errorf("-snapshot %s: %w", path, err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("-snapshot %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "warm state at t=%d written to %s\n", snap.T, path)
	res, err := f.resume(snap)
	if err != nil {
		return fmt.Errorf("-snapshot: %w", err)
	}
	fmt.Print(renderSnapshotCell(f, res))
	return nil
}

// runSnapshotRestore implements -restore: load the snapshot file, resume
// the run it describes, and print the same table -snapshot printed.
func runSnapshotRestore(path string) error {
	in, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("-restore: %w", err)
	}
	defer in.Close()
	var f snapshotFile
	if err := gob.NewDecoder(in).Decode(&f); err != nil {
		return fmt.Errorf("-restore %s: %w", path, err)
	}
	if f.Snap == nil {
		return fmt.Errorf("-restore %s: no snapshot in file", path)
	}
	res, err := f.resume(f.Snap)
	if err != nil {
		return fmt.Errorf("-restore: %w", err)
	}
	fmt.Print(renderSnapshotCell(f, res))
	return nil
}

// renderSnapshotCell formats one resumed cell. Every line is
// deterministic except those prefixed "wall", which carry the wall-clock
// observations (scheduling latency percentiles and elapsed time) — strip
// them (grep -v '^wall') to compare a -snapshot run against a -restore
// of its own file.
func renderSnapshotCell(f snapshotFile, r *sim.SteadyState) string {
	var b strings.Builder
	fmt.Fprintf(&b, "churn cell RISA @ %.4g%% (seed %d, %d racks), resumed from warm state at t=%d\n",
		f.Target*100, f.Seed, f.Racks, f.Warmup)
	fmt.Fprintf(&b, "arrivals %d  accepted %d  dropped %d  resident %d  end t=%d\n",
		r.Arrivals, r.Accepted, r.Dropped, r.Resident, r.End)
	fmt.Fprintf(&b, "avg util  CPU %.2f%%  RAM %.2f%%  STO %.2f%%  rate-mult %.4f\n",
		r.AvgUtil[units.CPU], r.AvgUtil[units.RAM], r.AvgUtil[units.Storage], r.RateMultiplier)
	for _, w := range r.Windows {
		fmt.Fprintf(&b, "window [%6d,%6d)  arrivals %5d  accepted %5d  acc %6.2f%%  util %.2f/%.2f/%.2f\n",
			w.Start, w.End, w.Arrivals, w.Accepted, w.AcceptancePct(),
			w.AvgUtil[units.CPU], w.AvgUtil[units.RAM], w.AvgUtil[units.Storage])
	}
	fmt.Fprintf(&b, "wall sched p50 %v  p95 %v  p99 %v  (%d samples)\n",
		r.LatencyP50, r.LatencyP95, r.LatencyP99, r.LatencySamples)
	fmt.Fprintf(&b, "wall elapsed %v  scheduling %v\n", r.WallTime, r.SchedulingTime)
	return b.String()
}
