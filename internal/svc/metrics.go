package svc

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"
)

// The clock points of one POST /place, in the order they are read: each
// stage of the request path runs from one point to the next, so the seven
// stages of a request sum to its handler span exactly.
const (
	atEntry     = iota // handler entered
	atDecoded          // body decoded and validated
	atPickUp           // the worker popped the item
	atWritten          // the journal's WriteAt returned
	atSynced           // its Sync returned
	atApplied          // the decision applied and booked, the answer about to be sent
	atResumed          // the handler woke with the answer
	atResponded        // the response written
	clockPoints
)

// stageNames names the stage that ends at clock point i+1.
var stageNames = [clockPoints - 1]string{"decode", "queue", "write", "sync", "apply", "handoff", "respond"}

// stamps are one request's clock readings, indexed by clock point.
type stamps [clockPoints]int64

var clockEpoch = time.Now()

// stageClock reads the clock the stage histograms are built from:
// nanoseconds on the monotonic clock. Every clock point and the snapshot
// timer go through it: a variable so that tests can drive it.
var stageClock = func() int64 { return int64(time.Since(clockEpoch)) }

// bucketBounds are the histograms' upper bounds in nanoseconds, ten a decade
// (1, 1.2, 1.5, 2, 2.5, 3, 4, 5, 6, 8) from 100 ns to 1 s: neighbours are
// 20–33 % apart, so a median read off the buckets is within ≈15 %.
var bucketBounds = func() (b [71]int64) {
	steps := [10]int64{10, 12, 15, 20, 25, 30, 40, 50, 60, 80}
	scale := int64(10)
	for i := range b {
		if i > 0 && i%len(steps) == 0 {
			scale *= 10
		}
		b[i] = steps[i%len(steps)] * scale
	}
	return b
}()

// histogram is a fixed-bucket latency histogram in preallocated arrays.
// observe takes no lock and allocates nothing: each count is an atomic, so
// handlers record concurrently while GET /metrics reads.
type histogram struct {
	counts [len(bucketBounds) + 1]atomic.Uint64 // per bucket, the last one past every bound
	sum    atomic.Int64                         // nanoseconds
}

func (h *histogram) observe(ns int64) {
	i, _ := slices.BinarySearch(bucketBounds[:], ns)
	h.counts[i].Add(1)
	h.sum.Add(ns)
}

// observe books one answered placement's stages.
func (s *Server) observe(at *stamps) {
	for i := range s.stages {
		s.stages[i].observe(at[i+1] - at[i])
	}
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format: the counters GET /stats reports, read on the control lane as it
// reads them, the snapshot file's size and age among them; the last
// recovery; and the stage and snapshot histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	it := &item{kind: opStats, res: make(chan response, 1)}
	if !s.q.enqueueControl(it) {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	resp := <-it.res
	if resp.status != http.StatusOK { // rejectAll's answer past a drain deadline carries no Stats
		s.write(w, resp)
		return
	}
	st := resp.body.(Stats)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metric := func(name, kind, help string) {
		fmt.Fprintf(w, "# HELP risasvc_%s %s\n# TYPE risasvc_%s %s\n", name, help, name, kind)
	}
	gauge := func(name, help string, v float64) {
		metric(name, "gauge", help)
		fmt.Fprintf(w, "risasvc_%s %g\n", name, v)
	}
	oneIf := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	metric("scheduler_info", "gauge", "The live scheduler algorithm.")
	fmt.Fprintf(w, "risasvc_scheduler_info{algo=%q} 1\n", st.Algo)
	gauge("virtual_time", "The engine's virtual clock.", float64(st.Now))
	gauge("resident_vms", "VMs currently placed.", float64(st.Resident))
	gauge("in_service_racks", "Racks serving traffic.", float64(st.InServiceRacks))
	gauge("spare_racks", "Dark spare racks left for POST /addrack.", float64(st.SpareRacks))
	gauge("queue_depth", "Data-lane occupancy.", float64(st.QueueDepth))
	gauge("draining", "1 once shutdown has begun.", oneIf(st.Draining))
	metric("decisions_total", "counter", "Placement decisions in the history, by VM tier and verdict.")
	for tier := range st.AcceptedByTier {
		fmt.Fprintf(w, "risasvc_decisions_total{tier=\"%d\",verdict=\"accepted\"} %d\n", tier, st.AcceptedByTier[tier])
		fmt.Fprintf(w, "risasvc_decisions_total{tier=\"%d\",verdict=\"rejected\"} %d\n", tier, st.RejectedByTier[tier])
	}
	metric("shed_total", "counter", "Requests shed by tier-aware backpressure.")
	fmt.Fprintf(w, "risasvc_shed_total %d\n", st.Shed)
	metric("expired_total", "counter", "Requests dropped at dequeue past their deadline.")
	fmt.Fprintf(w, "risasvc_expired_total %d\n", st.Expired)
	gauge("journal_bytes", "Where the journal's log ends.", float64(st.JournalBytes))
	gauge("journal_allocated_bytes", "The journal file's size, zero room included.", float64(st.JournalAllocatedBytes))
	gauge("snapshot_failing", "1 when the last snapshot attempt failed.", oneIf(st.LastSnapshotError != ""))
	if st.SnapshotBytes > 0 { // no samples before the first snapshot
		gauge("snapshot_bytes", "The size of the snapshot file in place.", float64(st.SnapshotBytes))
		gauge("snapshot_age_seconds", "Time since the snapshot file in place was written.", st.SnapshotAgeSeconds)
	}
	gauge("recovery_seconds", "How long the last Open took to restore and replay.", s.eng.recovery.Seconds())
	gauge("recovery_replayed_records", "Journal records the last Open replayed behind its snapshot.", float64(s.eng.replayed))
	metric("place_stage_seconds", "histogram", "POST /place, stage by stage: decode, queue, write, sync, apply, handoff, respond (DESIGN.md §13).")
	for i := range s.stages {
		writeHistogram(w, "place_stage_seconds", `stage="`+stageNames[i]+`"`, &s.stages[i])
	}
	metric("snapshot_seconds", "histogram", "Snapshot writes, failed ones included.")
	writeHistogram(w, "snapshot_seconds", "", &s.eng.snapshots)
}

// writeHistogram writes one histogram's samples: cumulative buckets, sum
// and count, each carrying label (may be empty).
func writeHistogram(w io.Writer, name, label string, h *histogram) {
	braced, sep := "", ""
	if label != "" {
		braced, sep = "{"+label+"}", ","
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
		le := "+Inf"
		if i < len(bucketBounds) {
			le = strconv.FormatFloat(float64(bucketBounds[i])/1e9, 'g', -1, 64)
		}
		fmt.Fprintf(w, "risasvc_%s_bucket{%s%sle=%q} %d\n", name, label, sep, le, n)
	}
	fmt.Fprintf(w, "risasvc_%s_sum%s %g\nrisasvc_%s_count%s %d\n", name, braced, float64(h.sum.Load())/1e9, name, braced, n)
}
