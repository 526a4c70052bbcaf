package svc

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"risa/internal/units"
	"risa/internal/workload"
)

// spyClock stands in for stageClock: its time moves only when the test
// moves it.
type spyClock struct{ now atomic.Int64 }

// newSpyClock puts a spy behind the stage clock for the rest of the test.
// Call it before the server starts, so the worker reads the spy.
func newSpyClock(t testing.TB) *spyClock {
	t.Helper()
	c, real := &spyClock{}, stageClock
	stageClock = c.now.Load
	t.Cleanup(func() { stageClock = real })
	return c
}

// placeBody is a valid POST /place body for VM id.
func placeBody(id int) string {
	return fmt.Sprintf(`{"id":%d,"arrival":%d,"lifetime":100,"cpu":1,"ram":1,"storage":0}`, id, id)
}

// servePlace sends one POST /place straight to the server's handler.
func servePlace(t *testing.T, s *Server, body io.Reader) {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/place", body))
	if w.Code != http.StatusOK {
		t.Fatalf("place: %d %s", w.Code, w.Body)
	}
}

// stageSums returns each stage's histogram sum, after requiring that
// every stage saw exactly n requests.
func stageSums(t *testing.T, s *Server, n uint64) (sums [clockPoints - 1]int64) {
	t.Helper()
	for i := range s.stages {
		var count uint64
		for j := range s.stages[i].counts {
			count += s.stages[i].counts[j].Load()
		}
		if count != n {
			t.Fatalf("stage %s saw %d requests, want %d", stageNames[i], count, n)
		}
		sums[i] = s.stages[i].sum.Load()
	}
	return sums
}

// onlyIn returns the sums a delay d injected into stage alone leaves.
func onlyIn(stage string, d int64) (want [clockPoints - 1]int64) {
	for i, name := range stageNames {
		if name == stage {
			want[i] = d
		}
	}
	return want
}

// slowBody is a request body whose first read costs d on the clock.
type slowBody struct {
	r     io.Reader
	clock *spyClock
	d     int64
}

func (b *slowBody) Read(p []byte) (int, error) {
	b.clock.now.Add(b.d)
	b.d = 0
	return b.r.Read(p)
}

// TestStageAttribution injects a delay at one seam of the request path at
// a time, on a clock that moves only when a delay is injected, and requires
// it in exactly one stage histogram and nowhere else.
func TestStageAttribution(t *testing.T) {
	const d = 7_000
	t.Run("a slow flush lands in sync", func(t *testing.T) {
		clock := newSpyClock(t)
		s, _ := newTestServer(t)
		real := fsync
		fsync = func(f *os.File) error { clock.now.Add(d); return real(f) }
		t.Cleanup(func() { fsync = real })
		servePlace(t, s, strings.NewReader(placeBody(1)))
		if got := stageSums(t, s, 1); got != onlyIn("sync", d) {
			t.Fatalf("stage sums %v, want %v", got, onlyIn("sync", d))
		}
	})
	t.Run("a control-lane item holding the worker lands in queue", func(t *testing.T) {
		clock := newSpyClock(t)
		s, _ := newTestServer(t)
		hold := &item{kind: opStats, res: make(chan response)} // unbuffered: the worker parks answering it
		if !s.q.enqueueControl(hold) {
			t.Fatal("control item refused")
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/place", strings.NewReader(placeBody(1))))
			if w.Code != http.StatusOK {
				t.Errorf("place: %d %s", w.Code, w.Body)
			}
		}()
		for s.q.depth() == 0 {
			runtime.Gosched()
		}
		clock.now.Add(d)
		<-hold.res
		<-done
		if got := stageSums(t, s, 1); got != onlyIn("queue", d) {
			t.Fatalf("stage sums %v, want %v", got, onlyIn("queue", d))
		}
	})
	t.Run("a slow body lands in decode", func(t *testing.T) {
		clock := newSpyClock(t)
		s, _ := newTestServer(t)
		servePlace(t, s, &slowBody{r: strings.NewReader(placeBody(1)), clock: clock, d: d})
		if got := stageSums(t, s, 1); got != onlyIn("decode", d) {
			t.Fatalf("stage sums %v, want %v", got, onlyIn("decode", d))
		}
	})
}

// TestStagesSumToHandlerSpan: the k-th clock reading is 1+2+…+k, so each
// gap between readings is distinct. A request's eight clock points, read
// in order and once each, give the seven stages 2, 3, …, 8, which sum to
// its handler span exactly — and a reading added, dropped or moved to
// another stage shifts them.
func TestStagesSumToHandlerSpan(t *testing.T) {
	var k atomic.Int64
	real := stageClock
	stageClock = func() int64 { n := k.Add(1); return n * (n + 1) / 2 }
	t.Cleanup(func() { stageClock = real })
	s, _ := newTestServer(t)
	servePlace(t, s, strings.NewReader(placeBody(1)))
	got, span := stageSums(t, s, 1), int64(0)
	for i, sum := range got {
		if sum != int64(i+2) {
			t.Fatalf("stage sums %v, want 2, 3, …, 8", got)
		}
		span += sum
	}
	if first, last := int64(1), int64(clockPoints*(clockPoints+1)/2); span != last-first {
		t.Fatalf("stages sum to %d, handler span is %d", span, last-first)
	}
}

// TestMetricsEndpoint reads GET /metrics after a crash, a reopen and a
// little traffic: every sample line parses, the counters GET /stats keeps
// agree with it, the recovery figures name the replayed journal suffix,
// the snapshot's size and age appear once there is a snapshot and match
// its file, and each histogram's buckets are cumulative up to its count.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 3; id++ {
		if _, err := e.Place(workload.VM{ID: id, Arrival: int64(id), Lifetime: 100, Req: units.Vec(1, 1, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	e.crash()
	e, err = Open(dir, testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(e, 0)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	for id := 4; id <= 6; id++ {
		if resp, m := post(t, ts.URL+"/place", placeBody(id)); resp.StatusCode != http.StatusOK {
			t.Fatalf("place %d: %d %v", id, resp.StatusCode, m)
		}
	}
	if body := getBody(t, ts.URL+"/metrics"); strings.Contains(body, "risasvc_snapshot_bytes") {
		t.Fatal("snapshot size reported before there is a snapshot")
	}
	taken := time.Now()
	if resp, m := post(t, ts.URL+"/snapshot", `{}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d %v", resp.StatusCode, m)
	}
	st := getStats(t, ts.URL)
	snap, err := os.Stat(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	samples := map[string]float64{}
	var last string
	var lastCum float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if sp < 0 || err != nil {
			t.Fatalf("unparsable sample %q", line)
		}
		name := line[:sp]
		samples[name] = v
		if i := strings.Index(name, "_bucket{"); i >= 0 { // cumulative within one series
			series := name[:i] + name[strings.IndexByte(name, '{'):strings.Index(name, "le=")]
			if series == last && v < lastCum {
				t.Fatalf("bucket %s = %g below the one before it, %g", name, v, lastCum)
			}
			last, lastCum = series, v
		}
	}
	for name, want := range map[string]float64{
		"risasvc_resident_vms":                                       float64(st.Resident),
		`risasvc_decisions_total{tier="0",verdict="accepted"}`:       float64(st.AcceptedByTier[0]),
		"risasvc_journal_bytes":                                      float64(st.JournalBytes),
		"risasvc_shed_total":                                         0,
		"risasvc_recovery_replayed_records":                          3,
		`risasvc_place_stage_seconds_count{stage="decode"}`:          3,
		`risasvc_place_stage_seconds_count{stage="respond"}`:         3,
		`risasvc_place_stage_seconds_bucket{stage="sync",le="+Inf"}`: 3,
		"risasvc_snapshot_seconds_count":                             1,
		"risasvc_snapshot_bytes":                                     float64(snap.Size()),
		`risasvc_snapshot_seconds_bucket{le="+Inf"}`:                 1,
		`risasvc_scheduler_info{algo="RISA"}`:                        1,
	} {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("%s = %g (present %v), want %g", name, got, ok, want)
		}
	}
	if samples["risasvc_recovery_seconds"] <= 0 {
		t.Error("risasvc_recovery_seconds is not positive")
	}
	// A file's timestamp lags the clock by up to a kernel tick: a second of
	// slack covers any.
	if age, ok := samples["risasvc_snapshot_age_seconds"]; !ok || age < 0 || age > time.Since(taken).Seconds()+1 {
		t.Errorf("risasvc_snapshot_age_seconds = %g (present %v), want 0 to %g", age, ok, time.Since(taken).Seconds()+1)
	}
}

// getBody fetches url and returns its body.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsAfterDrainDeadline: a GET /metrics still queued when the drain
// deadline passes is answered by rejectAll, whose answer carries no Stats.
// It must reach the client as that 503, not panic the handler. The worker
// is never started, so the request stays queued until rejectAll.
func TestMetricsAfterDrainDeadline(t *testing.T) {
	e, err := Open(t.TempDir(), testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.crash)
	s := NewServer(e, 0)
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	}()
	for queued := false; !queued; {
		runtime.Gosched()
		s.q.mu.Lock()
		queued = len(s.q.control) > 0
		s.q.mu.Unlock()
	}
	s.q.rejectAll(http.StatusServiceUnavailable)
	<-done
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("GET /metrics answered %d after rejectAll, want 503", w.Code)
	}
}
