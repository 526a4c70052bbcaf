package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"risa/internal/svc"
	"risa/internal/units"
	"risa/internal/workload"
)

// TestRetryReusesConnection pins the client's behaviour into a shedding
// daemon: two 429s (each with the daemon's JSON error body) and then a
// 200 for one VM travel over ONE TCP connection. A refusal whose body is
// closed unread costs a fresh dial per retry — three connections here.
func TestRetryReusesConnection(t *testing.T) {
	var requests, dials atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if requests.Add(1) <= 2 {
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}` + "\n"))
			return
		}
		w.Write([]byte(`{"VMID":7,"Accepted":true}` + "\n"))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	stats := &clientStats{}
	vm := workload.VM{ID: 7, Lifetime: 10, Req: units.Vec(8, 16, 128)}
	sendOne(&http.Client{}, clientOptions{url: srv.URL}, svc.NewBackoff(time.Millisecond, time.Millisecond, 1), vm, stats)

	if stats.placed != 1 || stats.shed != 2 {
		t.Fatalf("placed %d, shed %d; want 1 and 2", stats.placed, stats.shed)
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("3 requests used %d connections, want 1", got)
	}
}

// TestBackoffResetsAfterTerminalFailure: a VM that ends in 504 after two
// shed retries must not leave the next VM's first retry waiting as if it
// were the third — the backoff rewinds on every terminal outcome, not
// only after a 200.
func TestBackoffResetsAfterTerminalFailure(t *testing.T) {
	var requests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) <= 2 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusGatewayTimeout)
	}))
	defer srv.Close()

	const base = time.Millisecond
	bo := svc.NewBackoff(base, time.Second, 1)
	stats := &clientStats{}
	sendOne(&http.Client{}, clientOptions{url: srv.URL}, bo, workload.VM{ID: 7, Lifetime: 10, Req: units.Vec(8, 16, 128)}, stats)
	if stats.shed != 2 || stats.expired != 1 {
		t.Fatalf("shed %d, expired %d; want 2 and 1", stats.shed, stats.expired)
	}
	// A first attempt's delay lies in [base/2, base); a third's in
	// [2·base, 4·base).
	if d := bo.Next(); d >= base {
		t.Errorf("next delay %v after a terminal 504, want a first-attempt delay below %v", d, base)
	}
}
