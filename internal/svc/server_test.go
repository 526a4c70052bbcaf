package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// newTestServer opens an engine in a temp dir and serves it over
// httptest. The cleanup shuts the worker down gracefully.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	eng, err := Open(t.TempDir(), testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(eng, 8)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func post(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("%s: bad JSON response: %v", url, err)
	}
	return resp, m
}

// getStats fetches and decodes GET /stats.
func getStats(t *testing.T, url string) (st Stats) {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServerEndToEnd drives the whole HTTP surface: placements land,
// mutations and swaps succeed, stats and the placement log reflect it
// all, and bad requests answer 400.
func TestServerEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	for i := 1; i <= 5; i++ {
		resp, m := post(t, ts.URL+"/place",
			fmt.Sprintf(`{"id":%d,"tier":%d,"arrival":%d,"lifetime":500,"cpu":4,"ram":8,"storage":64}`, i, i%3, i*10))
		if resp.StatusCode != 200 {
			t.Fatalf("place %d: status %d (%v)", i, resp.StatusCode, m)
		}
		if m["Accepted"] != true {
			t.Fatalf("place %d not accepted: %v", i, m)
		}
	}

	// Idempotent retry: same ID returns the same decision.
	_, first := post(t, ts.URL+"/place", `{"id":1,"tier":1,"arrival":10,"lifetime":500,"cpu":4,"ram":8,"storage":64}`)
	if first["Seq"] != float64(1) {
		t.Fatalf("retried place did not return the original outcome: %v", first)
	}

	if resp, m := post(t, ts.URL+"/fail", `{"scope":"rack","rack":2}`); resp.StatusCode != 200 {
		t.Fatalf("fail: %d %v", resp.StatusCode, m)
	}
	if resp, m := post(t, ts.URL+"/heal", `{"scope":"rack","rack":2}`); resp.StatusCode != 200 {
		t.Fatalf("heal: %d %v", resp.StatusCode, m)
	}
	if resp, _ := post(t, ts.URL+"/fail", `{"scope":"rack","rack":99}`); resp.StatusCode != 400 {
		t.Fatalf("out-of-range fail answered %d, want 400", resp.StatusCode)
	}
	if resp, m := post(t, ts.URL+"/addrack", `{}`); resp.StatusCode != 200 || m["rack"] != float64(4) {
		t.Fatalf("addrack: %d %v", resp.StatusCode, m)
	}
	if resp, _ := post(t, ts.URL+"/swap", `{"algo":"NULB"}`); resp.StatusCode != 200 {
		t.Fatal("swap to NULB failed")
	}
	if resp, _ := post(t, ts.URL+"/swap", `{"algo":"NOPE"}`); resp.StatusCode != 400 {
		t.Fatal("swap to unknown algorithm must answer 400")
	}
	if resp, _ := post(t, ts.URL+"/place", `{"id":100,"tier":0,"lifetime":0,"cpu":4,"ram":8,"storage":64}`); resp.StatusCode != 400 {
		t.Fatal("invalid VM must answer 400 before touching the queue")
	}

	st := getStats(t, ts.URL)
	if st.Algo != "NULB" || st.Resident != 5 || st.InServiceRacks != 5 {
		t.Fatalf("stats after the script: %+v", st)
	}
	// Nine records so far (5 placements, fail, heal, addrack, swap) behind
	// the header, in a file of one chunk: ls -l no longer says how much log
	// there is, /stats does.
	if st.JournalAllocatedBytes != journalChunk || st.JournalBytes <= 9*frameHeader || st.JournalBytes >= journalChunk/2 {
		t.Fatalf("stats report %d journal bytes of %d allocated", st.JournalBytes, st.JournalAllocatedBytes)
	}

	resp, err := http.Get(ts.URL + "/placements")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 || !strings.Contains(lines[0], "seq=1 vm=1") {
		t.Fatalf("placement log:\n%s", buf.String())
	}
}

// TestServerExpiredRequestDropped pins the deadline contract: a request
// whose context expires while queued is answered 504 at dequeue and
// never reaches the engine.
func TestServerExpiredRequestDropped(t *testing.T) {
	eng, err := Open(t.TempDir(), testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(eng, 8)
	// No Start yet: queue the item first, so its deadline lapses before
	// the worker ever runs — deterministic, no sleep races.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	it := &item{ctx: ctx, kind: opPlace, tier: 0, res: make(chan response, 1)}
	if ok, _ := s.q.enqueueData(it); !ok {
		t.Fatal("enqueue failed")
	}
	s.Start()
	select {
	case resp := <-it.res:
		if resp.status != http.StatusGatewayTimeout {
			t.Fatalf("expired item answered %d, want 504", resp.status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("expired item never answered")
	}
	if len(eng.History()) != 0 {
		t.Fatal("expired item reached the engine")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	s.Shutdown(shutCtx)
}

// TestServerDeadlineOutOfRange: a deadline_ms too large for a
// time.Duration is refused with 400. Unchecked, the conversion wrapped
// negative, the context was born expired, and the request was answered 504
// and counted as expired instead of waiting; the largest value that fits
// still places.
func TestServerDeadlineOutOfRange(t *testing.T) {
	_, ts := newTestServer(t)
	place := func(id int, deadlineMS int64) int {
		resp, _ := post(t, ts.URL+"/place",
			fmt.Sprintf(`{"id":%d,"lifetime":100,"cpu":1,"ram":1,"storage":0,"deadline_ms":%d}`, id, deadlineMS))
		return resp.StatusCode
	}
	if got := place(1, maxDeadlineMS+1); got != http.StatusBadRequest {
		t.Errorf("deadline_ms one past the bound answered %d, want 400", got)
	}
	if got := place(2, math.MaxInt64); got != http.StatusBadRequest {
		t.Errorf("deadline_ms MaxInt64 answered %d, want 400", got)
	}
	if got := place(3, maxDeadlineMS); got != http.StatusOK {
		t.Errorf("deadline_ms at the bound answered %d, want 200", got)
	}
	if st := getStats(t, ts.URL); st.Expired != 0 {
		t.Errorf("%d requests counted as expired", st.Expired)
	}
}

// TestServerDrain pins graceful shutdown: after Shutdown begins, new
// placements answer 503 and the engine has written its final snapshot
// (the next Open replays nothing).
func TestServerDrain(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, testConfig(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(eng, 8)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := post(t, ts.URL+"/place", `{"id":1,"tier":0,"lifetime":100,"cpu":1,"ram":1,"storage":0}`); resp.StatusCode != 200 {
		t.Fatal("warm-up place failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if resp, _ := post(t, ts.URL+"/place", `{"id":2,"tier":0,"lifetime":100,"cpu":1,"ram":1,"storage":0}`); resp.StatusCode != 503 {
		t.Fatal("placement after drain must answer 503")
	}

	// The final snapshot must carry the full state: reopen and compare.
	eng2, err := Open(dir, testConfig(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.crash()
	if len(eng2.History()) != 1 || eng2.Resident() != 1 {
		t.Fatalf("reopened after graceful drain: %d decisions, %d resident", len(eng2.History()), eng2.Resident())
	}
}

// TestServerBoundsRequestBodies: a body past maxBody is refused with 413
// however well-formed, a body that stops mid-object or names an algorithm
// longer than any registered with 400 — on all three endpoints that read
// one, before the queue: nothing is journaled and no counter in /stats
// moves.
func TestServerBoundsRequestBodies(t *testing.T) {
	_, ts := newTestServer(t)
	if resp, m := post(t, ts.URL+"/place", `{"id":1,"tier":0,"lifetime":100,"cpu":1,"ram":1,"storage":0}`); resp.StatusCode != 200 {
		t.Fatalf("warm-up place: %d %v", resp.StatusCode, m)
	}
	before := getStats(t, ts.URL)
	pad := strings.Repeat(" ", maxBody)
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/place", `{"id":2,"tier":0,"lifetime":100,"cpu":1,"ram":1,` + pad + `"storage":0}`, http.StatusRequestEntityTooLarge},
		{"/fail", `{"scope":"rack",` + pad + `"rack":1}`, http.StatusRequestEntityTooLarge},
		{"/heal", `{"scope":"rack",` + pad + `"rack":1}`, http.StatusRequestEntityTooLarge},
		{"/swap", `{` + pad + `"algo":"NULB"}`, http.StatusRequestEntityTooLarge},
		{"/place", `{"id":2,"tier":0,"lifetime":100,"cpu":1,"ram":1,"stor`, http.StatusBadRequest},
		{"/fail", `{"scope":"rack","rack":`, http.StatusBadRequest},
		{"/heal", `{"scope":"ra`, http.StatusBadRequest},
		{"/swap", `{"algo":"NU`, http.StatusBadRequest},
		{"/swap", `{"algo":"` + strings.Repeat("R", maxAlgoName+1) + `"}`, http.StatusBadRequest},
	} {
		if resp, m := post(t, ts.URL+tc.path, tc.body); resp.StatusCode != tc.status {
			t.Fatalf("%s with a %d-byte body answered %d (%v), want %d", tc.path, len(tc.body), resp.StatusCode, m, tc.status)
		}
	}
	if after := getStats(t, ts.URL); after != before {
		t.Fatalf("refused bodies moved /stats:\n before %+v\n after  %+v", before, after)
	}
	if resp, m := post(t, ts.URL+"/swap", `{"algo":"RISA-BF"}`); resp.StatusCode != 200 {
		t.Fatalf("swap to the longest registered name: %d %v", resp.StatusCode, m)
	}
	if after := getStats(t, ts.URL); after.JournalBytes <= before.JournalBytes || after.Algo != "RISA-BF" {
		t.Fatalf("an accepted swap did not move the journal: %d → %d bytes", before.JournalBytes, after.JournalBytes)
	}
}

// placeHandlerAllocs is the ceiling on allocations per POST /place through
// the handler, the worker and the engine, ResponseRecorder's own six
// included. It reads 14: the body read (its length limit and its buffer,
// which the answer is encoded into), the queue item with its reply channel,
// the data lane's append, two header values, and the recorder's.
// encoding/json's decoder and encoder read 21 on the same harness.
const placeHandlerAllocs = 14

// TestAllocsPlaceHandler pins what one placement allocates between
// ServeHTTP and the response: the same steady residency as
// TestAllocsEnginePlace, one request and one ResponseRecorder per round.
func TestAllocsPlaceHandler(t *testing.T) {
	cfg := testConfig()
	cfg.Topology.Racks = 2
	eng, err := Open(t.TempDir(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(eng, 0)
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	h := s.Handler()
	body := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, "/place", nil)
	req.Body = io.NopCloser(body)
	var buf []byte
	var out bytes.Buffer // the recorder's, reused: how it grows differs under -race
	var now int64
	round := func() {
		now++
		buf = strconv.AppendInt(append(buf[:0], `{"id":`...), now, 10)
		buf = strconv.AppendInt(append(buf, `,"arrival":`...), now, 10)
		buf = append(buf, `,"lifetime":16,"cpu":8,"ram":16,"storage":128}`...)
		body.Reset(buf)
		out.Reset()
		w := httptest.NewRecorder()
		w.Body = &out
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("place %d: %d %s", now, w.Code, w.Body)
		}
	}
	for range 100 {
		round()
	}
	if got := testing.AllocsPerRun(200, round); got > placeHandlerAllocs {
		t.Fatalf("POST /place allocates %v times, ceiling %d", got, placeHandlerAllocs)
	}
}
