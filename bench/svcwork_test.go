package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"risa/internal/svc"
	"risa/internal/workload"
)

func TestDueTimesAreAFixedSchedule(t *testing.T) {
	due := dueTimes(5, 1000)
	for i, d := range due {
		if want := time.Duration(i) * time.Millisecond; d != want {
			t.Errorf("due[%d] = %v, want %v", i, d, want)
		}
	}
	if got := dueTimes(3, 250)[2]; got != 8*time.Millisecond {
		t.Errorf("third request at 250/s due at %v, want 8ms", got)
	}
}

// An open loop charges a stall to every request it delayed: with the
// first reply held back for longer than several send intervals, the
// requests that fell due meanwhile must be timed from their due times,
// not from when the connection let them out.
func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	const rate = 100 // one request every 10 ms
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		json.NewEncoder(w).Encode(svc.Outcome{Accepted: true})
	}))
	defer srv.Close()
	vms := make([]workload.VM, 8)
	for i := range vms {
		vms[i] = workload.VM{ID: i, Lifetime: 1}
	}
	stats, lag := openLoop(srv.URL, "", vms, noRef, rate, 1)
	if stats.failed != 0 || len(stats.placed) != len(vms) {
		t.Fatalf("placed %d of %d, %d failed: %v", len(stats.placed), len(vms), stats.failed, stats.firstErr)
	}
	// Request 3 was due 30 ms in, while the first reply was still held
	// back: it could not leave before the stall ended, 60 ms in, so from
	// its due time it waited at least 30 ms. Timed from its actual send
	// it would read well under a millisecond.
	if got := stats.placed[3].latency; got < stall-30*time.Millisecond {
		t.Errorf("request 3 latency %v: not timed from its due time (stall %v)", got, stall)
	}
	// The last request is due after the backlog has drained and is
	// quick again.
	if got := stats.placed[7].latency; got > stall/2 {
		t.Errorf("request 7 latency %v: the stall should be over", got)
	}
	// Sender lag is only recorded for requests that found the connection
	// free, never for those the stall delayed, and is never negative: the
	// sender does not send early.
	if len(lag) == 0 || len(lag) >= len(vms) {
		t.Errorf("%d lag samples for %d requests, some of which were delayed by the stall", len(lag), len(vms))
	}
	for _, us := range lag {
		if us < 0 || us > float64(stall.Microseconds()) {
			t.Errorf("sender lag %g us", us)
		}
	}
}

// A mix hands every daemon request out exactly once and in order, and
// sends exactly as many requests as it takes to place n.
func TestMixInterleavesReferenceRequests(t *testing.T) {
	for _, m := range []mix{closedMix, pacedMix, noRef} {
		for _, n := range []int{1, 4, 399, 400, 401, 1234} {
			next, refs := 0, 0
			for i := 0; i < m.total(n); i++ {
				ref, di := m.toRef(i)
				if ref {
					refs++
					continue
				}
				if di != next {
					t.Fatalf("mix %+v: request %d is daemon request %d, want %d", m, i, di, next)
				}
				next++
			}
			if next != n {
				t.Errorf("mix %+v: %d requests place %d VMs, want %d", m, m.total(n), next, n)
			}
			if m.ref == 0 && refs != 0 {
				t.Errorf("mix %+v sent %d reference requests", m, refs)
			}
		}
	}
}

// The daemon is read against the reference requests of the same slice: a
// slice in which everything took twice as long yields the same ratio.
func TestSliceRatiosPairWithinSlices(t *testing.T) {
	l := &loadStats{}
	at := time.Duration(0)
	for slice, slow := range []time.Duration{1, 2} {
		for i := 0; i < 2*minSliceSamples; i++ {
			ref := i%2 == 0
			lat := 300 * time.Microsecond * slow
			if ref {
				lat = 100 * time.Microsecond * slow
			}
			l.add(ref, svc.Outcome{Accepted: true}, nil, placed{slice: slice, begin: at, done: at + lat, latency: lat})
			at += lat
		}
	}
	l.add(false, svc.Outcome{}, nil, placed{slice: 2, latency: time.Second}) // a partial slice does not count
	p50, perSec := sliceRatios(l)
	if len(p50) != 2 || len(perSec) != 2 {
		t.Fatalf("%d latency and %d rate ratios, want 2 each", len(p50), len(perSec))
	}
	for i := range p50 {
		if p50[i] != 3 {
			t.Errorf("slice %d: latency ratio %g, want 3", i, p50[i])
		}
		if perSec[i] < 0.9 || perSec[i] > 1.1 {
			t.Errorf("slice %d: rate ratio %g: both kinds were sent at the same rate", i, perSec[i])
		}
	}
}

// End to end on a tiny budget: both service workloads place every VM,
// recover an identical log from every crash copy, and report every
// end-to-end metric.
func TestServiceWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		if w.sim != nil {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			r := &run{workload: w.Name, seed: 5, seconds: 1, outDir: t.TempDir(), metrics: map[string]float64{}}
			if err := w.run(r); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("%d failed operations: %v", r.failed, r.notes)
			}
			res, err := r.result()
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want a positive value", d.Name, res.Metrics[d.Name].Value)
				}
			}
			if res.Attempted < recoverCopies+100 {
				t.Errorf("attempted %d operations", res.Attempted)
			}
		})
	}
}
