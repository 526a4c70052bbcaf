package main

import (
	"time"

	"risa/internal/sched"
	"risa/internal/workload"
)

// lapSched cuts a cell into laps: it counts the Schedule calls the
// simulator makes and reads the clock once every so many, so that one cell
// yields many timings of the whole event loop — arrival, decision,
// departures, accounting — without anything inside it being touched. A
// lap lasts a millisecond or two, short enough for some repeat of it to
// run between the interruptions a whole cell never escapes, and each lap
// is timed by its fastest repeat (see byPosition). Tracing is still off: no call is timed, and a lap
// boundary costs one clock reading.
type lapSched struct {
	inner sched.Scheduler
	every int // Schedule calls per lap
	calls int
	marks []lapMark
}

// lapMark is one clock reading and the Schedule calls made before it.
type lapMark struct {
	at    time.Time
	calls int
}

func (s *lapSched) Name() string { return s.inner.Name() }

func (s *lapSched) Schedule(vm workload.VM) (*sched.Assignment, error) {
	if s.calls%s.every == 0 {
		s.mark()
	}
	s.calls++
	return s.inner.Schedule(vm)
}

func (s *lapSched) Release(a *sched.Assignment) { s.inner.Release(a) }

// mark reads the clock; the cell calls it where its timed part begins (if
// that is before the first decision) and where it ends.
func (s *lapSched) mark() { s.marks = append(s.marks, lapMark{time.Now(), s.calls}) }

// lap is the stretch between two marks.
type lap struct {
	ns    float64
	calls int // Schedule calls made in it
}

func (s *lapSched) laps() []lap {
	var out []lap
	for i := 1; i < len(s.marks); i++ {
		a, b := s.marks[i-1], s.marks[i]
		out = append(out, lap{ns: float64(b.at.Sub(a.at).Nanoseconds()), calls: b.calls - a.calls})
	}
	return out
}

// lapStatefulSched additionally forwards the snapshot surface (see
// tracedStatefulSched).
type lapStatefulSched struct {
	*lapSched
	state sched.StatefulScheduler
}

func (s lapStatefulSched) SchedulerState() sched.SchedulerState { return s.state.SchedulerState() }
func (s lapStatefulSched) RestoreSchedulerState(st sched.SchedulerState) {
	s.state.RestoreSchedulerState(st)
}

// lapScheduler wraps inner, keeping sched.StatefulScheduler visible to the
// simulator's type assertions exactly when inner implements it.
func lapScheduler(inner sched.Scheduler, every int) (sched.Scheduler, *lapSched) {
	l := &lapSched{inner: inner, every: max(1, every)}
	if st, ok := inner.(sched.StatefulScheduler); ok {
		return lapStatefulSched{lapSched: l, state: st}, l
	}
	return l, l
}

// byPosition folds the repeats of one cell into one, lap by lap: a cell
// does the same work in every round, decision for decision, so lap i of
// one repeat and lap i of another time the same work, and each is timed
// by its fastest repeat. On a shared box interference only ever adds time,
// so the quickest repeat is the one closest to what the code itself
// costs: over eight runs of one commit the minimum of 50-120 repeats
// spread by 2.5-3.4 %, the 5th percentile by 4-5 %, the lower quartile by
// 9-12 % (it follows the box's memory state). The price is that the
// minimum sinks a little as a faster box fits more rounds into a run.
// Laps are not compared with one another: they differ in what they hold
// (a finite trace's datacenter fills up; one NALB decision in three at
// 4608 racks costs 300 times the others). Repeats of a cell have the same
// laps; should one have fewer, the common prefix counts.
func byPosition(repeats [][]lap) []lap {
	if len(repeats) == 0 {
		return nil
	}
	out := append([]lap(nil), repeats[0]...)
	for _, r := range repeats[1:] {
		out = out[:min(len(out), len(r))]
		for i := range out {
			out[i].ns = min(out[i].ns, r[i].ns)
		}
	}
	return out
}

// perDecision lists what one decision cost, in nanoseconds, in each lap
// of exactly every calls — the full laps, which leaves out a build-up
// before the first decision and the remainder after the last full lap.
func perDecision(laps []lap, every int) []float64 {
	var out []float64
	for _, l := range laps {
		if l.calls == every {
			out = append(out, l.ns/float64(every))
		}
	}
	return out
}
