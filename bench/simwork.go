package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"risa/internal/experiments"
	"risa/internal/power"
	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// simCell is one algorithm cell of one round, as the harness saw it.
type simCell struct {
	name     string // golden key, e.g. "azure-3000/RISA" or "RISA"
	alg      string
	arrivals int           // arrivals the timed call processed
	measured int           // measured-phase arrivals (all of them on a finite trace)
	accepted int           // of those, accepted
	wall     time.Duration // the cell's wall time (see each workload)
	// laps is the cell cut into laps (plain rounds only; see lapSched), and
	// lapEvery the decisions per lap.
	laps     []lap
	lapEvery int
	digest   string
	exact    map[string]float64 // simulated per-layer metrics this cell contributes, by name
	tr       *tracer            // traced rounds only
	loopWall time.Duration      // traced rounds: the enclosing call's wall
	mallocs  uint64             // heap allocations inside the enclosing call (see countMallocs)
}

// countMallocs runs f and returns the heap allocations made meanwhile.
// Reading the allocator's statistics stops the world, so only the traced
// pass's plain rounds ask for it.
func countMallocs(count bool, f func()) uint64 {
	if !count {
		f()
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// simState is a simulator workload after set-up.
type simState interface {
	// round runs every cell once. Traced rounds run the same cells behind
	// the decorators; plain rounds count each cell's allocations when
	// mallocs is set.
	round(traced, mallocs bool) ([]simCell, error)
	// scratch returns a private copy of the warm state for the direct
	// layer loops.
	scratch() (*sched.State, error)
	// setupLayers reports what set-up measured about single layers.
	setupLayers(r *run)
	// loopMetric names the per-layer metric this workload's enclosing
	// simulator call reports its self time under.
	loopMetric() string
	// summary folds the plain rounds of a run into its end-to-end timings.
	summary(rounds [][]simCell) simSummary
}

// simWorkload runs a simulator workload: repeated set-up, then rounds of
// identical deterministic work until the time is up, each cell cut into
// laps that are timed by their fastest repeat (see lapSched).
func simWorkload(setup func(seed int64) (simState, error)) func(r *run) error {
	return func(r *run) error {
		experiments.SetParallelism(1)
		before := time.Since(procStart)
		var st simState
		setups, err := repeatTimed(func() (time.Duration, error) {
			st = nil
			debug.FreeOSMemory() // the discarded set-up must not count into peak RSS
			start := time.Now()
			var err error
			st, err = setup(r.seed)
			return time.Since(start), err
		})
		if err != nil {
			return err
		}
		r.setupDone(before, setups)
		if r.trace {
			return simTraced(r, st)
		}
		return simPlain(r, st)
	}
}

// minRounds is the fewest rounds a run repeats its work.
const minRounds = 2

// simPlain is the end-to-end pass: tracing off.
func simPlain(r *run, st simState) error {
	start := time.Now()
	var rounds [][]simCell
	// A round is started while one more of average length still fits, so
	// a workload whose rounds take seconds does not overrun by one.
	for len(rounds) < minRounds || time.Since(start).Seconds()*float64(len(rounds)+1)/float64(len(rounds)) <= r.seconds {
		clock.sampleBuild()
		cells, err := st.round(false, false)
		if err != nil {
			return err
		}
		rounds = append(rounds, cells)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)

	s := st.summary(rounds)
	r.setScaled("host_ns_per_vm", s.hostNSPerVM, lapTime)
	r.setScaled("place_per_s", s.placePerSec, lapRate)
	r.setScaled("place_p50_us", s.p50US, lapTime)
	r.set("accept_pct", acceptPct(rounds[0]))
	r.notef("%d rounds of %d cells in %.1f s; %s", len(rounds), len(rounds[0]), time.Since(start).Seconds(), s.how)

	checkCells(r, rounds)
	return nil
}

// simSummary is a run's end-to-end timing, as measured; how says what the
// samples were.
type simSummary struct {
	hostNSPerVM, placePerSec, p50US float64
	how                             string
}

// lapSummary folds the plain rounds of a run into its end-to-end
// timings. Every cell is cut into laps (see lapSched), each lap is timed
// by its fastest repeat (byPosition), and the cell costs the sum of its
// laps.
// An algorithm's cost per VM is the time of its cells over their
// arrivals; the cost of one placement is the median full lap's, per
// decision, averaged geometrically over the algorithms like the cost per
// VM.
func lapSummary(rounds [][]simCell) simSummary {
	repeats := map[string][][]lap{}
	for _, cells := range rounds {
		for _, c := range cells {
			repeats[c.name] = append(repeats[c.name], c.laps)
		}
	}
	algNS := map[string]float64{}
	algArr := map[string]float64{}
	algLaps := map[string][]float64{}
	n := 0
	for _, c := range rounds[0] {
		laps := byPosition(repeats[c.name])
		for _, l := range laps {
			algNS[c.alg] += l.ns
		}
		algArr[c.alg] += float64(c.arrivals)
		full := perDecision(laps, c.lapEvery)
		algLaps[c.alg] = append(algLaps[c.alg], full...)
		n += len(full)
	}
	var cost, arr, p50s []float64
	for _, alg := range experiments.Algorithms {
		cost = append(cost, algNS[alg]/algArr[alg])
		arr = append(arr, algArr[alg])
		p50s = append(p50s, median(algLaps[alg])/1e3)
	}
	s := simSummary{p50US: geomean(p50s), how: fmt.Sprintf("%d full laps, each timed by its fastest of %d repeats", n, len(rounds))}
	s.hostNSPerVM, s.placePerSec = perAlgorithm(cost, arr)
	return s
}

// perAlgorithm folds each algorithm's cost per arrival into the two
// end-to-end figures. cost and arrivals are indexed alike. Cost per VM is
// averaged geometrically over the algorithms, so NALB's 30-200x cost
// neither hides the other three nor is hidden by their larger budgets;
// placements per second is what a round of these arrivals at these costs
// comes to.
func perAlgorithm(costNS, arrivals []float64) (hostNSPerVM, placePerSec float64) {
	var wall, arr float64
	for i := range costNS {
		wall += costNS[i] * arrivals[i]
		arr += arrivals[i]
	}
	return geomean(costNS), arr / (wall / 1e9)
}

// acceptPct is the measured-phase acceptance over a round's cells; it is
// simulated, so every round of a run reads the same.
func acceptPct(cells []simCell) float64 {
	var measured, accepted float64
	for _, c := range cells {
		measured += float64(c.measured)
		accepted += float64(c.accepted)
	}
	return accepted / measured * 100
}

// checkCells is the correctness gate for simulator cells. Every cell of
// every round is one attempted operation. It fails when its digest
// differs from the stored reference for this seed or, for a seed without
// one, from the same cell of the first round; or when its counters do not
// add up.
func checkCells(r *run, rounds [][]simCell) {
	ref, haveRef := r.gold.lookup(r.workload, r.seed)
	if !haveRef {
		r.notef("no stored reference for seed %d: cells are checked against the first round only", r.seed)
	}
	first := map[string]string{}
	for _, c := range rounds[0] {
		first[c.name] = c.digest
	}
	for i, cells := range rounds {
		for _, c := range cells {
			r.attempted++
			want := first[c.name]
			if haveRef {
				want = ref.Cells[c.name]
			}
			if c.digest != want {
				r.failf(1, "round %d cell %s digest %s, want %s", i, c.name, c.digest, want)
			}
			if c.measured <= 0 || c.accepted > c.measured {
				r.failf(1, "round %d cell %s counters: accepted %d of %d measured arrivals", i, c.name, c.accepted, c.measured)
			}
		}
	}
	if haveRef {
		for name, want := range ref.Exact {
			if got := exactOf(rounds[0])[name]; got != want {
				r.failf(1, "%s = %v, stored reference %v", name, got, want)
			}
		}
	}
}

// exactOf collects the simulated quantities a round's cells carry.
func exactOf(cells []simCell) map[string]float64 {
	out := map[string]float64{"accept_pct": acceptPct(cells)}
	for _, c := range cells {
		for k, v := range c.exact {
			out[k] = v
		}
	}
	return out
}

// simTraced is the per-layer pass: plain and traced rounds alternate for
// about half the time, so the overhead of tracing is read from rounds
// that ran side by side; then the direct layer loops run on a scratch
// copy of the warm state.
func simTraced(r *run, st simState) error {
	deadline := time.Now().Add(time.Duration(r.seconds * 0.6 * float64(time.Second)))
	var plain, traced [][]simCell
	var mallocs []float64
	for len(plain) < 2 || time.Now().Before(deadline) {
		p, err := st.round(false, true)
		if err != nil {
			return err
		}
		t, err := st.round(true, false)
		if err != nil {
			return err
		}
		plain, traced = append(plain, p), append(traced, t)
		var arr, allocs float64
		for _, c := range p {
			arr += float64(c.arrivals)
			allocs += float64(c.mallocs)
		}
		mallocs = append(mallocs, allocs/arr)
	}

	// The traced rounds must reproduce the plain ones cell for cell.
	checkCells(r, append(append([][]simCell{}, plain...), traced...))

	var wallPlain, wallTraced []float64
	for i := range plain {
		wallPlain = append(wallPlain, sumWall(plain[i]))
		wallTraced = append(wallTraced, sumWall(traced[i]))
	}
	r.set("sim.trace_overhead_pct", (median(wallTraced)/median(wallPlain)-1)*100)
	r.set("sim.allocs_per_vm", median(mallocs))
	for _, c := range plain[0] {
		for name, v := range c.exact {
			r.set(name, v)
		}
	}

	// Per-layer figures from the decorators, over all traced rounds.
	type algAgg struct {
		sched, release layerAgg
		schedNS        []float64
		failed, inter  int64
	}
	byAlg := map[string]*algAgg{}
	var next layerAgg
	var selfNS, arrivals, events int64
	var spanCells []traceCell
	for ri, cells := range traced {
		for _, c := range cells {
			a := byAlg[c.alg]
			if a == nil {
				a = &algAgg{}
				byAlg[c.alg] = a
			}
			t := c.tr
			a.sched.Calls += t.calls(spanSchedule)
			a.sched.NS += t.ns(spanSchedule)
			a.release.Calls += t.calls(spanRelease)
			a.release.NS += t.ns(spanRelease)
			a.schedNS = append(a.schedNS, t.schedNS...)
			a.failed += t.failed
			a.inter += t.interRack
			next.Calls += t.calls(spanNext)
			next.NS += t.ns(spanNext)
			selfNS += int64(c.loopWall) - t.ns(spanSchedule) - t.ns(spanRelease) - t.ns(spanNext)
			arrivals += int64(c.arrivals)
			events += t.calls(spanSchedule) + t.calls(spanRelease)
			if ri == 0 {
				spanCells = append(spanCells, t.cell(c.name))
			}
		}
	}
	n := float64(len(traced))
	per := func(a layerAgg) float64 {
		if a.Calls == 0 {
			return 0
		}
		return float64(a.NS) / float64(a.Calls)
	}
	for _, alg := range experiments.Algorithms {
		a, p := byAlg[alg], algLayer[alg]
		s := summarize(a.schedNS)
		r.set(p+".schedule_ns", per(a.sched))
		r.set(p+".schedule_p99_ns", quantile(a.schedNS, 99))
		r.set(p+".release_ns", per(a.release))
		r.set(p+".schedule_calls", float64(a.sched.Calls)/n)
		r.set(p+".schedule_failed", float64(a.failed)/n)
		if ok := a.sched.Calls - a.failed; ok > 0 {
			r.set(p+".inter_rack_pct", float64(a.inter)/float64(ok)*100)
		}
		r.notef("%s Schedule: n=%d median %.0f ns, p%g %.0f ns", alg, s.N, s.Median, s.TailP, s.Tail)
	}
	r.set("workload.next_ns", per(next))
	r.set("workload.next_calls", float64(next.Calls)/n)
	r.set(st.loopMetric(), float64(selfNS)/float64(arrivals))
	r.set("sim.events", float64(events)/n)
	st.setupLayers(r)
	hostLayers(r)
	r.notef("%d plain and %d traced rounds, alternating; traced digests equal plain ones unless a FAILED line says otherwise", len(plain), len(traced))

	if err := r.writeTrace(spanCells, "the first traced round"); err != nil {
		return err
	}

	scratch, err := st.scratch()
	if err != nil {
		return err
	}
	return layerLoops(r, scratch)
}

func sumWall(cells []simCell) float64 {
	var w float64
	for _, c := range cells {
		w += float64(c.wall.Nanoseconds())
	}
	return w
}

// ---------------------------------------------------------------------
// paper-figures

// paperLap is the decisions per lap of a paper-figures cell: a cell
// replays 2500 to 7500 VMs in 7 to 25 ms.
const paperLap = 500

// paperTrace is one trace of the paper's evaluation and the setup it
// replays on.
type paperTrace struct {
	setup experiments.Setup
	tr    *workload.Trace
}

// paperState holds the four traces of the paper's evaluation.
type paperState struct {
	seed     int64
	traces   []paperTrace
	genTrace time.Duration
}

// setupPaper generates the §5.1 synthetic trace (replayed on the Table 1
// rack) and the three Azure-like traces (replayed on the storage-heavy
// AzureSetup rack, as Figures 7-10 and 12 are).
func setupPaper(seed int64) (simState, error) {
	start := time.Now()
	ps := &paperState{seed: seed}
	def := experiments.DefaultSetup()
	def.Seed = seed
	tr, err := def.SyntheticTrace()
	if err != nil {
		return nil, err
	}
	ps.traces = append(ps.traces, paperTrace{def, tr})
	az := experiments.AzureSetupFrom(def)
	for _, subset := range workload.Subsets() {
		tr, err := az.AzureTrace(subset)
		if err != nil {
			return nil, err
		}
		ps.traces = append(ps.traces, paperTrace{az, tr})
	}
	ps.genTrace = time.Since(start)
	return ps, nil
}

// round replays every trace under every algorithm through Runner.Run,
// each cell on a fresh datacenter, serially — what Setup.RunAll does per
// trace. The cell's wall time covers building the datacenter too, as it
// does for a user regenerating a figure.
func (ps *paperState) round(traced, mallocs bool) ([]simCell, error) {
	var cells []simCell
	results := map[string]*sim.Result{}
	for _, pt := range ps.traces {
		for _, alg := range experiments.Algorithms {
			c := simCell{name: pt.tr.Name + "/" + alg, alg: alg}
			clock.sample()
			start := time.Now()
			st, err := pt.setup.NewState()
			if err != nil {
				return nil, err
			}
			sch, err := experiments.NewScheduler(alg, st)
			if err != nil {
				return nil, err
			}
			var laps *lapSched
			if traced {
				c.tr = newTracer()
				sch = traceScheduler(sch, c.tr)
			} else {
				sch, laps = lapScheduler(sch, paperLap)
				laps.marks = append(laps.marks, lapMark{at: start}) // the datacenter's build is the first lap
			}
			model, err := power.NewModel(pt.setup.Optics)
			if err != nil {
				return nil, err
			}
			runner, err := sim.NewRunner(st, sch, sim.Config{PowerModel: model})
			if err != nil {
				return nil, err
			}
			var res *sim.Result
			if traced {
				c.loopWall = c.tr.loop(func() { res, err = runner.Run(pt.tr) })
			} else {
				c.mallocs = countMallocs(mallocs, func() { res, err = runner.Run(pt.tr) })
			}
			if err != nil {
				return nil, err
			}
			if laps != nil {
				laps.mark()
				c.laps, c.lapEvery = laps.laps(), paperLap
			}
			c.wall = time.Since(start)
			c.arrivals = len(pt.tr.VMs)
			c.measured = res.Scheduled + res.Dropped
			c.accepted = res.Scheduled
			c.digest = digestResult(res)
			results[c.name] = res
			cells = append(cells, c)
		}
	}
	// The paper's two headline savings, RISA against NULB on Azure-3000.
	name := ps.traces[1].tr.Name
	nulb, risa := results[name+"/NULB"], results[name+"/RISA"]
	cells[0].exact = map[string]float64{
		"sim.risa_power_saving_pct": (nulb.PeakPowerW - risa.PeakPowerW) / nulb.PeakPowerW * 100,
		"sim.risa_rtt_saving_pct":   float64(nulb.MeanCPURAMLatency-risa.MeanCPURAMLatency) / float64(nulb.MeanCPURAMLatency) * 100,
	}
	return cells, nil
}

// summary: a cell's wall time covers building its datacenter too, as it
// does for a user regenerating a figure.
func (ps *paperState) summary(rounds [][]simCell) simSummary { return lapSummary(rounds) }

// scratch is a Table 1 datacenter loaded with the first 600 VMs of the
// synthetic trace (about the trace's steady occupancy), placed by RISA.
func (ps *paperState) scratch() (*sched.State, error) {
	pt := ps.traces[0]
	st, err := pt.setup.NewState()
	if err != nil {
		return nil, err
	}
	sch, err := experiments.NewScheduler("RISA", st)
	if err != nil {
		return nil, err
	}
	for _, vm := range pt.tr.VMs[:600] {
		if _, err := sch.Schedule(vm); err != nil {
			return nil, fmt.Errorf("loading the scratch state: %w", err)
		}
	}
	return st, nil
}

func (ps *paperState) setupLayers(r *run) {
	r.set("workload.gen_trace_ms", float64(ps.genTrace.Nanoseconds())/1e6)
}

func (ps *paperState) loopMetric() string { return "sim.run.self_ns_per_vm" }

// ---------------------------------------------------------------------
// churn-18r and scale-4608r

// streamSpec parameterizes an open-ended stream workload.
type streamSpec struct {
	racks int
	// load is the offered load as a share of the analytic sustainable
	// rate. With controlled set, a UtilizationController holds occupancy
	// at load; otherwise the rate is fixed.
	load       float64
	controlled bool
	warmup     int64 // measured phase starts here; the warm snapshot is taken here too
	window     int64
	// resume makes every cell resume the shared warm snapshot instead of
	// warming its own fresh datacenter.
	resume bool
	// budget is the arrivals each algorithm's cell processes per round
	// (after the snapshot point when resuming).
	budget map[string]int
	// lap is the decisions per lap of each algorithm's cell, sized so a lap
	// takes a millisecond or two.
	lap map[string]int
}

// streamState is a stream workload after set-up.
type streamState struct {
	spec  streamSpec
	setup experiments.Setup
	base  workload.SyntheticConfig
	warm  *sim.Snapshot // the warm state under RISA at spec.warmup

	build, warmTime, clone time.Duration
	bytesPerBox            float64
	restoreAllocs          uint64 // see restoreMallocs
}

func setupStream(spec streamSpec) func(seed int64) (simState, error) {
	return func(seed int64) (simState, error) {
		ss := &streamState{spec: spec, setup: experiments.DefaultSetup()}
		ss.setup.Seed = seed
		ss.setup.Topology.Racks = spec.racks

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		st, err := ss.setup.NewState()
		if err != nil {
			return nil, err
		}
		ss.build = time.Since(start)
		runtime.ReadMemStats(&after)
		ss.bytesPerBox = float64(after.HeapAlloc-before.HeapAlloc) / float64(len(st.Cluster.Boxes()))

		ss.base = stationaryMix(seed, st.Cluster, spec.load)

		start = time.Now()
		runner, stream, _, err := ss.cell("RISA", st, nil, 0)
		if err != nil {
			return nil, err
		}
		cfg := ss.streamConfig(unbounded)
		cfg.Snapshot.At = spec.warmup
		snap, err := runner.WarmStream(stream, cfg)
		if err != nil {
			return nil, err
		}
		ss.warmTime = time.Since(start)

		start = time.Now()
		ss.warm = snap.Clone()
		ss.clone = time.Since(start)
		return ss, nil
	}
}

// stationaryMix is the §5.1 request mix made stationary (fixed
// lifetimes), arriving at load × the rate the cluster can sustain, which
// is computed from the binding resource's capacity:
// rate = load · min_k cap_k / (lifetime · E[req_k]).
func stationaryMix(seed int64, cl *topology.Cluster, load float64) workload.SyntheticConfig {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Seed = seed
	cfg.LifetimeStep = 0
	meanReq := [units.NumResources]float64{
		units.CPU:     float64(cfg.CPUMin+cfg.CPUMax) / 2,
		units.RAM:     float64(cfg.RAMMin+cfg.RAMMax) / 2,
		units.Storage: float64(cfg.StorageGB),
	}
	binding := 0.0
	for _, k := range units.Resources() {
		rate := float64(cl.TotalCapacity(k)) / (float64(cfg.LifetimeBase) * meanReq[k])
		if binding == 0 || rate < binding {
			binding = rate
		}
	}
	cfg.MeanInterarrival = 1 / (load * binding)
	return cfg
}

// unbounded is the arrival bound of the warm run, which stops at the
// snapshot point instead (a stream run must carry some bound).
const unbounded = 1 << 40

// streamConfig bounds a cell at the given total arrival count.
func (ss *streamState) streamConfig(maxArrivals int) sim.StreamConfig {
	return sim.StreamConfig{
		Workload: sim.StreamWorkload{MaxArrivals: maxArrivals},
		Windows:  sim.StreamWindows{Warmup: ss.spec.warmup, Window: ss.spec.window},
	}
}

// cell builds one algorithm's runner and stream on st (a fresh
// datacenter when nil): behind the tracing decorators when t is set, else
// behind the lap counter when lapEvery is.
func (ss *streamState) cell(alg string, st *sched.State, t *tracer, lapEvery int) (*sim.Runner, workload.Stream, *lapSched, error) {
	if st == nil {
		var err error
		if st, err = ss.setup.NewState(); err != nil {
			return nil, nil, nil, err
		}
	}
	cfg := ss.base
	if ss.spec.controlled {
		// The controller carries the loop's state: one per stream.
		cfg.Controller = &workload.UtilizationController{Target: ss.spec.load}
	}
	syn, err := cfg.NewStream()
	if err != nil {
		return nil, nil, nil, err
	}
	sch, err := experiments.NewScheduler(alg, st)
	if err != nil {
		return nil, nil, nil, err
	}
	var stream workload.Stream = syn
	var laps *lapSched
	switch {
	case t != nil:
		sch = traceScheduler(sch, t)
		stream = &tracedStream{SyntheticStream: syn, t: t}
	case lapEvery > 0:
		sch, laps = lapScheduler(sch, lapEvery)
	}
	model, err := power.NewModel(ss.setup.Optics)
	if err != nil {
		return nil, nil, nil, err
	}
	runner, err := sim.NewRunner(st, sch, sim.Config{PowerModel: model})
	return runner, stream, laps, err
}

// round runs one cell per algorithm: RunStream on a fresh datacenter, or
// ResumeStream from the shared warm snapshot. The cell's wall time is the
// run's own WallTime — the event loop alone, so a resumed cell does not
// charge its restore to the arrivals it then processes. A plain round's
// cells are cut into laps.
func (ss *streamState) round(traced, mallocs bool) ([]simCell, error) {
	var cells []simCell
	for _, alg := range experiments.Algorithms {
		c := simCell{name: alg, alg: alg}
		if traced {
			c.tr = newTracer()
		}
		every := 0
		if !traced {
			every = ss.spec.lap[alg]
		}
		runner, stream, laps, err := ss.cell(alg, nil, c.tr, every)
		if err != nil {
			return nil, err
		}
		clock.sample()
		var res *sim.SteadyState
		run := func() {
			if ss.spec.resume {
				res, err = runner.ResumeStream(stream, ss.warm, ss.streamConfig(ss.warm.Counters.TotalArrivals+ss.spec.budget[alg]))
			} else {
				res, err = runner.RunStream(stream, ss.streamConfig(ss.spec.budget[alg]))
			}
		}
		if traced {
			c.tr.loop(run)
		} else {
			c.mallocs = countMallocs(mallocs, run)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", alg, err)
		}
		if ss.spec.resume && mallocs {
			// ResumeStream restores before it loops; take the restore's
			// allocations back out.
			restore, err := ss.restoreMallocs()
			if err != nil {
				return nil, err
			}
			c.mallocs -= min(c.mallocs, restore)
		}
		c.wall, c.loopWall = res.WallTime, res.WallTime
		c.arrivals = res.TotalArrivals
		if ss.spec.resume {
			c.arrivals -= ss.warm.Counters.TotalArrivals
		}
		c.measured, c.accepted = res.Arrivals, res.Accepted
		if laps != nil {
			laps.mark()
			c.laps, c.lapEvery = laps.laps(), every
		}
		c.digest = digestSteady(res)
		cells = append(cells, c)
	}
	return cells, nil
}

// restore builds a fresh datacenter and replays the warm snapshot into
// it, returning the two durations.
func (ss *streamState) restore() (*sched.State, time.Duration, time.Duration, error) {
	start := time.Now()
	st, err := ss.setup.NewState()
	if err != nil {
		return nil, 0, 0, err
	}
	sch, err := experiments.NewScheduler("RISA", st)
	if err != nil {
		return nil, 0, 0, err
	}
	build := time.Since(start)
	start = time.Now()
	if _, err := sim.RestoreState(st, sch, &ss.warm.State); err != nil {
		return nil, 0, 0, err
	}
	return st, build, time.Since(start), nil
}

// restoreMallocs is what replaying the warm snapshot into a fresh
// datacenter allocates, measured once.
func (ss *streamState) restoreMallocs() (uint64, error) {
	if ss.restoreAllocs == 0 {
		st, err := ss.setup.NewState()
		if err != nil {
			return 0, err
		}
		sch, err := experiments.NewScheduler("RISA", st)
		if err != nil {
			return 0, err
		}
		ss.restoreAllocs = countMallocs(true, func() { _, err = sim.RestoreState(st, sch, &ss.warm.State) })
		if err != nil {
			return 0, err
		}
	}
	return ss.restoreAllocs, nil
}

func (ss *streamState) scratch() (*sched.State, error) {
	st, _, _, err := ss.restore()
	return st, err
}

func (ss *streamState) setupLayers(r *run) {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	r.set("topology.build_ms", ms(ss.build))
	r.set("topology.bytes_per_box", ss.bytesPerBox)
	r.set("sim.warm_ms", ms(ss.warmTime))
	r.set("sim.snapshot_clone_ms", ms(ss.clone))
	if _, _, restore, err := ss.restore(); err == nil {
		r.set("sim.resume_ms", ms(restore))
	}
}

func (ss *streamState) loopMetric() string { return "sim.stream.self_ns_per_vm" }

// summary: a stream cell's laps begin at its first decision, so a resumed
// cell does not charge its restore to the arrivals it then processes.
func (ss *streamState) summary(rounds [][]simCell) simSummary { return lapSummary(rounds) }
