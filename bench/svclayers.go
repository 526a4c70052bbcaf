package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"risa/internal/experiments"
	"risa/internal/faults"
	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/svc"
	"risa/internal/workload"
)

// engineHistory is the history length the direct engine run reaches at
// the default --seconds; the snapshot metrics are named after it and its
// quarter.
const engineHistory = 40000

// svcLayers is the traced pass of svc-place-2c below the closed loop: the
// same stream of VMs pushed through each layer of the service directly —
// the bare sim.Driver, then svc.Engine, then one HTTP connection — so the
// differences between them are the journal's and the HTTP stack's shares
// of a round trip. It ends by printing that budget.
func svcLayers(r *run) error {
	r.set("host.spin_ns", spinNS())
	n := int(float64(engineHistory) * min(1, r.seconds/defaultSeconds))
	start := time.Now()
	vms, err := svcVMs(r.seed, n)
	if err != nil {
		return err
	}
	r.set("workload.gen_trace_ms", float64(time.Since(start).Nanoseconds())/1e6)

	driverUS, err := twinDriver(r, vms)
	if err != nil {
		return err
	}
	// The device probe brackets the engine run it is subtracted from: the
	// box's flush time drifts by tens of percent over a minute.
	fsyncBefore, err := fsyncP50US(r.outDir, 0)
	if err != nil {
		return err
	}
	engineUS, err := engineDirect(r, vms)
	if err != nil {
		return err
	}
	fsyncAfter, err := fsyncP50US(r.outDir, 0)
	if err != nil {
		return err
	}
	fsyncUS := (fsyncBefore + fsyncAfter) / 2
	r.set("device.fsync_us_p50", fsyncUS)
	rttUS, healthUS, err := oneClient(r, vms[:n/8])
	if err != nil {
		return err
	}
	codecUS := clientCodecUS(vms[0])

	journalUS := engineUS - driverUS
	overheadUS := rttUS - engineUS
	// Between two requests of one connection the device sits idle for
	// about the non-engine part of a round trip; flush it at that pace.
	pacedUS, err := fsyncP50US(r.outDir, time.Duration(overheadUS*float64(time.Microsecond)))
	if err != nil {
		return err
	}
	r.set("device.fsync_paced_us_p50", pacedUS)
	r.set("svc.journal.us_p50", journalUS)
	r.set("svc.journal.non_fsync_us_p50", journalUS-fsyncUS)
	r.set("svc.http.rtt_us_p50", rttUS)
	r.set("svc.http.overhead_us_p50", overheadUS)

	type row struct {
		name string
		us   float64
	}
	budget := func(title string, rows []row) {
		sum := 0.0
		r.notef("%s", title)
		for _, row := range rows {
			sum += row.us
			r.notef("  %8.1f us  %s", row.us, row.name)
		}
		r.notef("  %8.1f us  sum of rows; svc.http.rtt_us_p50 is %.1f us, residual %.1f us (%.1f%%)", sum, rttUS, rttUS-sum, (rttUS-sum)/rttUS*100)
	}
	// The first budget is the layered one: each layer's share is the
	// difference between calling through it and calling the layer below
	// directly, so its rows account for the round trip by construction.
	budget("latency budget of one POST /place on one connection (medians; layer = call through it minus call below it):", []row{
		{"client JSON codec", codecUS},
		{"svc.http.overhead_us_p50 = HTTP round trip - Engine.Place", overheadUS},
		{"svc.journal.us_p50 = Engine.Place - Driver.Place", journalUS},
		{"decision, sim.Driver.Place", driverUS},
	})
	// The second explains the first from measurements that do not involve
	// a placement at all; what it leaves over is what no probe reaches
	// from outside: the queue hop, the server's JSON work, and the wake-ups
	// after the worker's blocking fsync.
	budget("the same round trip from independent probes:", []row{
		{"client JSON codec", codecUS},
		{"HTTP round trip of the empty handler, GET /healthz", healthUS},
		{"device.fsync_us_p50: journal-sized append+fsync, back to back", fsyncUS},
		{"device idle penalty: the same append+fsync paced like the connection, minus back to back", pacedUS - fsyncUS},
		{"svc.journal.non_fsync_us_p50: encode, frame, bookkeeping", journalUS - fsyncUS},
		{"decision, sim.Driver.Place", driverUS},
	})
	return nil
}

// twinDriver replays vms through a bare sim.Driver built the way the
// engine's genesis builds its own (spares dark), behind the scheduler
// decorator, timing every Place. It returns the median in microseconds.
func twinDriver(r *run, vms []workload.VM) (float64, error) {
	cfg := svcConfig()
	tcfg := cfg.Topology
	tcfg.Racks += cfg.Spares
	st, err := sched.NewState(tcfg, cfg.Network)
	if err != nil {
		return 0, err
	}
	inner, err := experiments.NewScheduler(cfg.Algo, st)
	if err != nil {
		return 0, err
	}
	t := newTracer()
	d := sim.NewDriver(st, traceScheduler(inner, t))
	for rack := cfg.Topology.Racks; rack < tcfg.Racks; rack++ {
		if err := d.Apply(faults.Event{Tier: faults.RackTier, Rack: rack}); err != nil {
			return 0, err
		}
	}
	us := make([]float64, 0, len(vms))
	for _, vm := range vms {
		id, start := t.begin()
		_, _, err := d.Place(vm)
		us = append(us, float64(t.end(id, start).Nanoseconds())/1e3)
		if err != nil {
			t.failed++ // a refusal is a decision; it is counted, not fatal
		}
	}
	p := algLayer[cfg.Algo]
	calls := float64(t.calls(spanSchedule))
	r.set(p+".schedule_ns", float64(t.ns(spanSchedule))/calls)
	r.set(p+".schedule_p99_ns", t.scheduleP99())
	r.set(p+".release_ns", float64(t.ns(spanRelease))/max(1, float64(t.calls(spanRelease))))
	r.set(p+".schedule_calls", calls)
	r.set(p+".schedule_failed", float64(t.failed))
	r.set(p+".inter_rack_pct", float64(t.interRack)/calls*100)
	r.set("sim.driver.self_ns_per_vm", float64(t.loopSelfNS())/float64(len(vms)))
	r.set("sim.events", float64(t.calls(spanSchedule)+t.calls(spanRelease)))
	if err := r.writeTrace([]traceCell{t.cell("twin-driver/" + cfg.Algo)}, "the twin driver"); err != nil {
		return 0, err
	}
	if err := layerLoops(r, st); err != nil {
		return 0, err
	}
	return summarize(us).Median, nil
}

// engineDirect calls svc.Engine.Place from one caller for every VM, on a
// fresh data directory with the default snapshot interval, and times
// WriteSnapshot directly at a quarter of the history and at its end.
func engineDirect(r *run, vms []workload.VM) (float64, error) {
	dir := r.dataDir("engine")
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	eng, err := svc.Open(dir, svcConfig(), 0)
	if err != nil {
		return 0, err
	}
	r.set("svc.open.cold_ms", float64(time.Since(start).Nanoseconds())/1e6)
	journal := filepath.Join(dir, "journal.wal")
	header, err := os.Stat(journal)
	if err != nil {
		return 0, err
	}

	snapshotMS := func() (float64, error) {
		start := time.Now()
		err := eng.WriteSnapshot()
		return float64(time.Since(start).Nanoseconds()) / 1e6, err
	}
	us := make([]float64, 0, len(vms))
	var busy time.Duration
	for i, vm := range vms {
		start := time.Now()
		_, err := eng.Place(vm)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		busy += d
		us = append(us, float64(d.Nanoseconds())/1e3)
		if i+1 == len(vms)/4 {
			ms, err := snapshotMS()
			if err != nil {
				return 0, err
			}
			r.set("svc.snapshot.ms_at_10k", ms)
		}
	}
	ms, err := snapshotMS()
	if err != nil {
		return 0, err
	}
	r.set("svc.snapshot.ms_at_40k", ms)
	if len(vms) != engineHistory {
		r.notef("svc.snapshot.* read at histories of %d and %d, not 10k and 40k: --seconds is below %d", len(vms)/4, len(vms), defaultSeconds)
	}
	snap, err := os.Stat(filepath.Join(dir, "snapshot.gob"))
	if err != nil {
		return 0, err
	}
	r.set("svc.snapshot.bytes_at_40k", float64(snap.Size()))
	full, err := os.Stat(journal)
	if err != nil {
		return 0, err
	}
	r.set("svc.journal.bytes_per_record", float64(full.Size()-header.Size())/float64(len(vms)))
	if err := eng.Close(); err != nil {
		return 0, err
	}
	s := summarize(us)
	r.set("svc.engine.place_us_p50", s.Median)
	r.set("svc.engine.place_us_p99", quantile(us, 99))
	r.set("svc.engine.place_per_s", float64(len(vms))/busy.Seconds())
	r.notef("Engine.Place direct: n=%d median %.1f us, p%g %.1f us", s.N, s.Median, s.TailP, s.Tail)
	return s.Median, nil
}

// oneClient runs a fresh daemon with a single closed-loop connection and
// returns the median round trip of POST /place and of GET /healthz, the
// handler that does nothing.
func oneClient(r *run, vms []workload.VM) (rttUS, healthUS float64, err error) {
	d, err := startDaemon(r.dataDir("oneclient"))
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if stopErr := d.stop(); err == nil {
			err = stopErr
		}
		if err == nil {
			err = os.RemoveAll(d.dir)
		}
	}()
	load, _ := closedLoop(d.http.URL, "", vms, noRef, 1, r.seed, 0)
	if load.failed > 0 {
		return 0, 0, fmt.Errorf("one-client pass: %d placements got no decision; first: %v", load.failed, load.firstErr)
	}
	c := newConn(d.http.URL)
	defer c.close()
	var health []float64
	for i := 0; i < 2000; i++ {
		start := time.Now()
		status, _, err := c.do("/healthz", nil)
		if err != nil || status != http.StatusOK {
			return 0, 0, fmt.Errorf("GET /healthz: status %d: %v", status, err)
		}
		health = append(health, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return summarize(load.latenciesUS()).Median, median(health), nil
}

// clientCodecUS is the median cost of the client's own JSON work for one
// placement: marshalling the request and unmarshalling an outcome.
func clientCodecUS(vm workload.VM) float64 {
	reply, _ := json.Marshal(svc.Outcome{Seq: 12345, VMID: vm.ID, T: vm.Arrival, Accepted: true, CPUBox: 17, RAMBox: 20, STOBox: 22})
	var us []float64
	for i := 0; i < 2000; i++ {
		start := time.Now()
		req := svc.PlaceRequest{ID: vm.ID, Arrival: vm.Arrival, Lifetime: vm.Lifetime, CPU: 16, RAM: 16, Storage: 128}
		b, _ := json.Marshal(req)
		var out svc.Outcome
		_ = json.Unmarshal(reply, &out)
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		probeSink += len(b) + out.VMID
	}
	return median(us)
}
