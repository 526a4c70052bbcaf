package sim

import (
	"testing"

	"risa/internal/core"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// streamTrace is a trace big enough for meaningful windows: 400 VMs,
// one arrival every 5 time units, fixed 200 tu lifetimes.
func streamTrace() *workload.Trace {
	tr := &workload.Trace{Name: "stream-fixture"}
	for i := 0; i < 400; i++ {
		tr.VMs = append(tr.VMs, workload.VM{
			ID: i, Arrival: int64(i * 5), Lifetime: 200, Req: units.Vec(4, 8, 128),
		})
	}
	return tr
}

func TestRunStreamMatchesFiniteRun(t *testing.T) {
	tr := streamTrace()
	_, r1 := newRunner(t, func(s *sched.State) sched.Scheduler { return core.New(s) })
	res, err := r1.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	_, r2 := newRunner(t, func(s *sched.State) sched.Scheduler { return core.New(s) })
	ss, err := r2.RunStream(workload.NewTraceStream(tr), StreamConfig{Workload: StreamWorkload{MaxArrivals: tr.Len()}, Windows: StreamWindows{Window: 100}})
	if err != nil {
		t.Fatal(err)
	}
	// The stream run stops at the last arrival instead of draining, but
	// every placement decision is shared with the finite run.
	if ss.TotalArrivals != tr.Len() || ss.TotalAccepted != res.Scheduled || ss.TotalDropped != res.Dropped {
		t.Errorf("stream run arrivals/accepted/dropped = %d/%d/%d, finite run scheduled/dropped = %d/%d",
			ss.TotalArrivals, ss.TotalAccepted, ss.TotalDropped, res.Scheduled, res.Dropped)
	}
	if ss.Workload != tr.Name || ss.Algorithm != "RISA" {
		t.Errorf("labels: %s/%s", ss.Algorithm, ss.Workload)
	}
	if ss.End != tr.VMs[tr.Len()-1].Arrival {
		t.Errorf("end = %d, want last arrival %d", ss.End, tr.VMs[tr.Len()-1].Arrival)
	}
}

func TestRunStreamWarmupAndWindows(t *testing.T) {
	tr := streamTrace() // arrivals at 0,5,...,1995
	_, r := newRunner(t, func(s *sched.State) sched.Scheduler { return core.New(s) })
	ss, err := r.RunStream(workload.NewTraceStream(tr), StreamConfig{Workload: StreamWorkload{MaxArrivals: tr.Len()}, Windows: StreamWindows{Warmup: 500, Window: 250}})
	if err != nil {
		t.Fatal(err)
	}
	// Measured arrivals: t in [500, 1995] → IDs 100..399.
	if ss.Arrivals != 300 {
		t.Errorf("measured arrivals = %d, want 300", ss.Arrivals)
	}
	if ss.TotalArrivals != 400 {
		t.Errorf("total arrivals = %d, want 400", ss.TotalArrivals)
	}
	// Complete windows partition [500, 1995): [500,750) ... [1750,2000)
	// is incomplete (run ends at 1995), so 5 complete windows.
	if len(ss.Windows) != 5 {
		t.Fatalf("windows = %d, want 5", len(ss.Windows))
	}
	for i, w := range ss.Windows {
		wantStart := int64(500 + 250*i)
		if w.Start != wantStart || w.End != wantStart+250 {
			t.Errorf("window %d spans [%d,%d), want [%d,%d)", i, w.Start, w.End, wantStart, wantStart+250)
		}
		if w.Arrivals != 50 {
			t.Errorf("window %d arrivals = %d, want 50", i, w.Arrivals)
		}
		if w.Arrivals != w.Accepted+w.Dropped {
			t.Errorf("window %d: %d arrivals but %d accepted + %d dropped",
				i, w.Arrivals, w.Accepted, w.Dropped)
		}
		// Steady state: 40 resident VMs × 4 cores on the 18-rack cluster.
		if w.AvgUtil[units.CPU] <= 0 {
			t.Errorf("window %d CPU utilization = %g, want > 0", i, w.AvgUtil[units.CPU])
		}
		if w.AcceptancePct() != 100 {
			t.Errorf("window %d acceptance = %g%%, want 100", i, w.AcceptancePct())
		}
	}
	winSum := 0
	for _, w := range ss.Windows {
		winSum += w.Arrivals
	}
	// The trailing partial window holds the remainder.
	if winSum > ss.Arrivals {
		t.Errorf("windows count %d arrivals, more than the %d measured", winSum, ss.Arrivals)
	}
	if ss.AvgUtil[units.CPU] <= 0 || ss.AvgUtil[units.Storage] <= 0 {
		t.Error("measured utilization should be positive")
	}
	if ss.LatencySamples != 300 {
		t.Errorf("latency samples = %d, want 300 (one per measured arrival)", ss.LatencySamples)
	}
	if ss.LatencyP50 <= 0 || ss.LatencyP99 < ss.LatencyP50 {
		t.Errorf("latency percentiles out of order: p50 %v p99 %v", ss.LatencyP50, ss.LatencyP99)
	}
	if ss.Resident <= 0 {
		t.Error("a mid-stream stop must leave residents")
	}
}

func TestRunStreamDurationBound(t *testing.T) {
	tr := streamTrace()
	_, r := newRunner(t, func(s *sched.State) sched.Scheduler { return core.New(s) })
	ss, err := r.RunStream(workload.NewTraceStream(tr), StreamConfig{Workload: StreamWorkload{Duration: 1000}, Windows: StreamWindows{Window: 100}})
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals beyond t=1000 are not consumed: IDs 0..200 (t=0..1000).
	if ss.TotalArrivals != 201 {
		t.Errorf("total arrivals = %d, want 201", ss.TotalArrivals)
	}
	if ss.End > 1000 {
		t.Errorf("end = %d, beyond the duration bound", ss.End)
	}
}

func TestRunStreamDurationExcludesFirstArrival(t *testing.T) {
	// A stream whose very first arrival lies beyond the Duration bound
	// must consume nothing.
	tr := &workload.Trace{Name: "late", VMs: []workload.VM{
		{ID: 0, Arrival: 500, Lifetime: 10, Req: units.Vec(1, 1, 1)},
	}}
	_, r := newRunner(t, func(s *sched.State) sched.Scheduler { return core.New(s) })
	ss, err := r.RunStream(workload.NewTraceStream(tr), StreamConfig{Workload: StreamWorkload{Duration: 100}, Windows: StreamWindows{Window: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if ss.TotalArrivals != 0 || ss.TotalAccepted != 0 || ss.End != 0 {
		t.Errorf("arrival beyond Duration consumed: arrivals=%d accepted=%d end=%d",
			ss.TotalArrivals, ss.TotalAccepted, ss.End)
	}
}

func TestRunStreamConfigValidation(t *testing.T) {
	tr := streamTrace()
	_, r := newRunner(t, func(s *sched.State) sched.Scheduler { return core.New(s) })
	for name, cfg := range map[string]StreamConfig{
		"no stop criterion": {Windows: StreamWindows{Window: 10}},
		"no window":         {Workload: StreamWorkload{MaxArrivals: 10}},
		"negative warmup":   {Workload: StreamWorkload{MaxArrivals: 10}, Windows: StreamWindows{Window: 10, Warmup: -1}},
		"warmup>=duration":  {Workload: StreamWorkload{Duration: 10}, Windows: StreamWindows{Warmup: 10, Window: 5}},
	} {
		if _, err := r.RunStream(workload.NewTraceStream(tr), cfg); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestRunStreamRetryQueue: RunStream supports the FIFO retry queue (a
// PR 5 extension — it used to reject it): on an overloaded single-rack
// cluster, arrivals that find no capacity wait and are served by later
// departures instead of being dropped, FIFO and with restarted
// lifetimes, mirroring Run's semantics.
func TestRunStreamRetryQueue(t *testing.T) {
	cfg := topology.DefaultConfig()
	cfg.Racks = 1
	cfg.CPUBoxes = 1 // one CPU box: whole-box CPU requests serialize
	st, err := sched.NewState(cfg, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(st, core.New(st), Config{Faults: Faults{Retry: true}})
	if err != nil {
		t.Fatal(err)
	}
	// Each VM takes the rack's only CPU box whole. VMs 1 and 2 arrive while VM 0
	// still runs and must wait; the departures at t=10 and t=20 (fired
	// ahead of the later arrivals in the merged event order) serve them
	// head-first. The stragglers at t=12/t=22 keep the run alive past
	// those departures and are themselves still waiting when the arrival
	// budget ends the run, so they count as dropped.
	tr := &workload.Trace{Name: "retry", VMs: []workload.VM{
		{ID: 0, Arrival: 0, Lifetime: 10, Req: units.Vec(512, 16, 128)},
		{ID: 1, Arrival: 1, Lifetime: 10, Req: units.Vec(512, 16, 128)},
		{ID: 2, Arrival: 2, Lifetime: 10, Req: units.Vec(512, 16, 128)},
		{ID: 3, Arrival: 12, Lifetime: 10, Req: units.Vec(512, 16, 128)},
		{ID: 4, Arrival: 22, Lifetime: 10, Req: units.Vec(512, 16, 128)},
	}}
	res, err := r.RunStream(workload.NewTraceStream(tr), StreamConfig{Workload: StreamWorkload{MaxArrivals: 5}, Windows: StreamWindows{Window: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAccepted != 3 || res.TotalDropped != 2 {
		t.Fatalf("accepted %d dropped %d, want 3/2", res.TotalAccepted, res.TotalDropped)
	}
	if res.Enqueued != 4 || res.RetrySucceeded != 2 {
		t.Fatalf("enqueued %d retried %d, want 4/2", res.Enqueued, res.RetrySucceeded)
	}
	// VM 1 waits from t=1 to the t=10 departure (9), VM 2 from t=2 to
	// t=20 (18): mean 13.5.
	if res.MeanWait != 13.5 {
		t.Errorf("mean wait %g, want 13.5", res.MeanWait)
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestRetryQueueUnderStreamAdapter pins the Queueing experiment's FIFO
// retry path now that Run consumes every trace through the stream
// adapter: an overloaded single-rack cluster queues arrivals and serves
// them from departures instead of dropping.
func TestRetryQueueUnderStreamAdapter(t *testing.T) {
	cfg := topology.DefaultConfig()
	cfg.Racks = 1
	st, err := sched.NewState(cfg, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(st, core.New(st), Config{Faults: Faults{Retry: true}})
	if err != nil {
		t.Fatal(err)
	}
	// 40 VMs of 128 cores each against a 1024-core rack: 8 fit at a
	// time, the rest must wait for departures.
	tr := &workload.Trace{Name: "overload"}
	for i := 0; i < 40; i++ {
		tr.VMs = append(tr.VMs, workload.VM{
			ID: i, Arrival: int64(i), Lifetime: 100, Req: units.Vec(128, 128, 1024),
		})
	}
	res, err := r.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Enqueued == 0 || res.RetrySucceeded == 0 {
		t.Fatalf("retry path idle: enqueued %d, retried %d", res.Enqueued, res.RetrySucceeded)
	}
	if res.Scheduled+res.Dropped != tr.Len() {
		t.Errorf("conservation: scheduled %d + dropped %d != %d VMs",
			res.Scheduled, res.Dropped, tr.Len())
	}
	if res.Scheduled <= 8 {
		t.Errorf("scheduled %d, want the queue to serve beyond the first fill", res.Scheduled)
	}
	if res.MeanWait <= 0 {
		t.Errorf("mean wait %g, want positive", res.MeanWait)
	}
}

// TestReservoirPercentileNearestRank holds the latency reservoir to the
// nearest-rank definition: the p-th percentile of n held samples is the
// ceil(p·n/100)-th smallest. The samples are 1..n in reverse, so the
// value read is the 1-based rank.
func TestReservoirPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n             int
		p50, p95, p99 float64
	}{
		{1, 1, 1, 1},
		{20, 10, 19, 20},
		{100, 50, 95, 99},
		{4096, 2048, 3892, 4056},
	} {
		r := newReservoir(c.n, 1)
		for v := c.n; v >= 1; v-- {
			r.add(float64(v))
		}
		for _, q := range []struct{ p, want float64 }{{50, c.p50}, {95, c.p95}, {99, c.p99}} {
			if got := r.percentile(q.p); got != q.want {
				t.Errorf("n=%d: P%v = rank %v, want %v", c.n, q.p, got, q.want)
			}
		}
	}
}
