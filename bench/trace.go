package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"risa/internal/sched"
	"risa/internal/workload"
)

// The traced pass takes its per-layer numbers from outside the program:
// the scheduler and the stream handed to the simulator are wrapped by the
// decorators below, which time every call across the package boundary and
// record it as a span whose parent is the enclosing Run / RunStream /
// Driver.Place span. Nothing inside internal/ is instrumented.

// spanKind names a boundary the decorators sit on. The loop span is the
// enclosing simulator call; the other three are its children.
type spanKind int

const (
	spanLoop spanKind = iota
	spanSchedule
	spanRelease
	spanNext
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"sim.loop", "sched.schedule", "sched.release", "workload.next"}

// maxSpans caps the spans kept verbatim for the span file. A traced cell
// makes millions of calls; the aggregates below cover all of them, the
// span list only the first maxSpans, which is enough to read the nesting.
const maxSpans = 2000

// span is one timed call: nanoseconds since the tracer's epoch, and the
// span that caused it (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerAgg is the count and busy time of one span name over every call,
// kept whether or not the span itself fit under maxSpans.
type layerAgg struct {
	Calls int64 `json:"calls"`
	NS    int64 `json:"ns"`
}

// tracer collects the spans and aggregates of one traced cell. It is
// used from one goroutine, like the simulator it observes.
type tracer struct {
	epoch  time.Time
	spans  []span
	nextID int
	parent int // the open loop span, -1 outside one
	agg    [numSpanKinds]layerAgg

	schedNS   []float64 // every Schedule duration, for the tail percentile
	failed    int64     // Schedule calls that returned an error
	interRack int64     // accepted placements spanning racks
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), parent: -1}
}

// add records one finished call under the currently open loop span.
func (t *tracer) add(kind spanKind, start time.Time, d time.Duration) int {
	a := &t.agg[kind]
	a.Calls++
	a.NS += int64(d)
	id := t.nextID
	t.nextID++
	if len(t.spans) < maxSpans {
		s := start.Sub(t.epoch).Nanoseconds()
		t.spans = append(t.spans, span{Name: spanNames[kind], ID: id, Parent: t.parent, Start: s, End: s + int64(d)})
	}
	return id
}

// begin opens the enclosing simulator call: spans the decorators record
// until end name it as their parent.
func (t *tracer) begin() (id int, start time.Time) {
	// The loop span takes its id before its children, so the file reads
	// parent-first; its end is filled in by end.
	id = t.nextID
	t.nextID++
	start = time.Now()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: spanNames[spanLoop], ID: id, Parent: -1, Start: start.Sub(t.epoch).Nanoseconds()})
	}
	t.parent = id
	return id, start
}

// end closes the call begin opened and returns its duration.
func (t *tracer) end(id int, start time.Time) time.Duration {
	d := time.Since(start)
	t.parent = -1
	a := &t.agg[spanLoop]
	a.Calls++
	a.NS += int64(d)
	// Spans are kept in id order without gaps until the cap, so a kept
	// span's index is its id.
	if id < len(t.spans) {
		t.spans[id].End = t.spans[id].Start + int64(d)
	}
	return d
}

// loop runs f between begin and end.
func (t *tracer) loop(f func()) time.Duration {
	id, start := t.begin()
	f()
	return t.end(id, start)
}

// calls and ns read one aggregate.
func (t *tracer) calls(kind spanKind) int64 { return t.agg[kind].Calls }
func (t *tracer) ns(kind spanKind) int64    { return t.agg[kind].NS }

// loopSelfNS is the loop's self time over all calls: its busy time minus
// the part its children cover.
func (t *tracer) loopSelfNS() int64 {
	return t.ns(spanLoop) - t.ns(spanSchedule) - t.ns(spanRelease) - t.ns(spanNext)
}

// tracedSched times every call into a scheduler.
type tracedSched struct {
	inner sched.Scheduler
	t     *tracer
}

func (s *tracedSched) Name() string { return s.inner.Name() }

func (s *tracedSched) Schedule(vm workload.VM) (*sched.Assignment, error) {
	start := time.Now()
	a, err := s.inner.Schedule(vm)
	d := time.Since(start)
	s.t.add(spanSchedule, start, d)
	s.t.schedNS = append(s.t.schedNS, float64(d))
	if err != nil {
		s.t.failed++
	} else if a.InterRack() {
		s.t.interRack++
	}
	return a, err
}

func (s *tracedSched) Release(a *sched.Assignment) {
	start := time.Now()
	s.inner.Release(a)
	s.t.add(spanRelease, start, time.Since(start))
}

// tracedStatefulSched additionally forwards the snapshot surface, so a
// traced WarmStream/ResumeStream captures and restores the inner
// scheduler's cursors exactly as an untraced one does.
type tracedStatefulSched struct {
	tracedSched
	state sched.StatefulScheduler
}

func (s *tracedStatefulSched) SchedulerState() sched.SchedulerState { return s.state.SchedulerState() }
func (s *tracedStatefulSched) RestoreSchedulerState(st sched.SchedulerState) {
	s.state.RestoreSchedulerState(st)
}

// traceScheduler wraps inner, keeping sched.StatefulScheduler visible to
// the simulator's type assertions exactly when inner implements it.
func traceScheduler(inner sched.Scheduler, t *tracer) sched.Scheduler {
	base := tracedSched{inner: inner, t: t}
	if st, ok := inner.(sched.StatefulScheduler); ok {
		return &tracedStatefulSched{tracedSched: base, state: st}
	}
	return &base
}

// tracedStream times every Next of a synthetic stream. Embedding the
// concrete stream promotes ObserveUtilization, StreamState,
// RestoreStreamState and Controller, so the simulator sees the same
// workload.UtilizationObserver / StreamSnapshotter surface and takes the
// same path as on the plain stream.
type tracedStream struct {
	*workload.SyntheticStream
	t *tracer
}

func (s *tracedStream) Next() (workload.VM, bool) {
	start := time.Now()
	vm, ok := s.SyntheticStream.Next()
	s.t.add(spanNext, start, time.Since(start))
	return vm, ok
}

// traceFile is what the traced pass writes to out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Cells holds one entry per traced cell, in run order.
	Cells []traceCell `json:"cells"`
}

// traceCell is one traced cell's aggregates and its first maxSpans spans.
type traceCell struct {
	Cell       string              `json:"cell"`
	Aggregates map[string]layerAgg `json:"aggregates"`
	SelfNS     map[string]int64    `json:"self_ns"` // over all calls
	Spans      []span              `json:"spans"`
}

// cell renders the tracer as one traceCell.
func (t *tracer) cell(name string) traceCell {
	agg := map[string]layerAgg{}
	self := map[string]int64{}
	for k, n := range spanNames {
		agg[n] = t.agg[k]
		self[n] = t.agg[k].NS // leaves: self time is the whole span
	}
	self[spanNames[spanLoop]] = t.loopSelfNS()
	return traceCell{Cell: name, Aggregates: agg, SelfNS: self, Spans: t.spans}
}

// scheduleP99 is the 99th percentile of the Schedule durations.
func (t *tracer) scheduleP99() float64 {
	sorted := append([]float64(nil), t.schedNS...)
	sort.Float64s(sorted)
	return quantile(sorted, 99)
}

// writeTraceFile writes the span file.
func writeTraceFile(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
