package main

import (
	"testing"
	"time"
)

func TestTracerParentsChildrenUnderTheOpenLoop(t *testing.T) {
	tr := newTracer()
	tr.loop(func() {
		tr.add(spanNext, time.Now(), 5)
		tr.add(spanSchedule, time.Now(), 7)
	})
	tr.add(spanRelease, time.Now(), 3) // outside any loop
	if len(tr.spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(tr.spans))
	}
	loop := tr.spans[0]
	if loop.Name != spanNames[spanLoop] || loop.Parent != -1 || loop.End < loop.Start {
		t.Errorf("loop span = %+v", loop)
	}
	for _, s := range tr.spans[1:3] {
		if s.Parent != loop.ID {
			t.Errorf("span %+v: parent %d, want the loop %d", s, s.Parent, loop.ID)
		}
	}
	if tr.spans[3].Parent != -1 {
		t.Errorf("span after the loop has parent %d, want -1", tr.spans[3].Parent)
	}
	if tr.calls(spanSchedule) != 1 || tr.ns(spanSchedule) != 7 || tr.calls(spanLoop) != 1 {
		t.Errorf("aggregates = %+v", tr.agg)
	}
	if got, want := tr.loopSelfNS(), tr.ns(spanLoop)-5-7-3; got != want {
		t.Errorf("loopSelfNS = %d, want %d", got, want)
	}
}

func TestTracerKeepsAggregatesPastTheSpanCap(t *testing.T) {
	tr := newTracer()
	for i := 0; i < maxSpans+10; i++ {
		tr.add(spanNext, time.Now(), 1)
	}
	id, start := tr.begin() // past the cap: not kept, must not panic
	tr.end(id, start)
	if len(tr.spans) != maxSpans {
		t.Errorf("kept %d spans, want the cap %d", len(tr.spans), maxSpans)
	}
	if tr.calls(spanNext) != maxSpans+10 || tr.calls(spanLoop) != 1 {
		t.Errorf("aggregates lost calls: next %d loop %d", tr.calls(spanNext), tr.calls(spanLoop))
	}
}
