package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	_ "risa/internal/baseline" // register NULB, NALB
	_ "risa/internal/core"     // register RISA, RISA-BF
	"risa/internal/network"
	"risa/internal/svc"
	"risa/internal/topology"
)

func TestGenerateKinds(t *testing.T) {
	wantN := map[string]int{
		"synthetic":  2500,
		"azure-3000": 3000,
		"azure-5000": 5000,
		"azure-7500": 7500,
	}
	for kind, n := range wantN {
		tr, err := generate(kind, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if tr.Len() != n {
			t.Errorf("%s: %d VMs, want %d", kind, tr.Len(), n)
		}
	}
	if _, err := generate("bogus", 1); err == nil {
		t.Error("bogus kind should fail")
	}
}

// TestParseArgsRejectsBadFlags: every value the client cannot send is
// refused with a message naming its flag, before anything is generated
// or sent. Unchecked, a relative URL retries its transport error
// forever, a rate above 1e9/s panics in NewTicker, and negative
// -rate/-count and -workers 0 would have to be guessed at (closed loop,
// the whole trace, one worker).
func TestParseArgsRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{nil, "-url"},
		{[]string{"-url", "localhost:8080"}, "-url"},
		{[]string{"-url", "/place"}, "-url"},
		{[]string{"-url", "ftp://localhost:8080"}, "-url"},
		{[]string{"-url", "http://"}, "-url"},
		{[]string{"-url", "http://localhost:8080", "-rate", "2e9"}, "-rate"},
		{[]string{"-url", "http://localhost:8080", "-rate", "-1"}, "-rate"},
		{[]string{"-url", "http://localhost:8080", "-rate", "NaN"}, "-rate"},
		{[]string{"-url", "http://localhost:8080", "-count", "-1"}, "-count"},
		{[]string{"-url", "http://localhost:8080", "-workers", "0"}, "-workers"},
		{[]string{"-url", "http://localhost:8080", "-workers", "-2"}, "-workers"},
		{[]string{"-url", "http://localhost:8080", "extra"}, "extra"},
	} {
		_, _, err := parseArgs(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("parseArgs(%q) = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}

	kind, o, err := parseArgs([]string{"-url", "https://localhost:8080", "-rate", "1e9", "-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if kind != "synthetic" || o.rate != 1e9 || o.workers != 2 || o.seed != 1 {
		t.Errorf("parsed kind %q, options %+v", kind, o)
	}
}

// TestRunClientPlacesEveryVM drives a real daemon — svc.Open and
// svc.NewServer behind httptest — with two senders and checks that the
// daemon decided every VM the client sent.
func TestRunClientPlacesEveryVM(t *testing.T) {
	cfg := svc.Config{Topology: topology.DefaultConfig(), Network: network.DefaultConfig(), Algo: "RISA"}
	eng, err := svc.Open(t.TempDir(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := svc.NewServer(eng, 64)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	tr, err := generate("synthetic", 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	stats := runClient(tr, clientOptions{url: ts.URL, count: n, workers: 2, seed: 1})
	if stats.sent != n || stats.placed+stats.rejected != n || stats.errors != 0 {
		t.Fatalf("client sent %d, placed %d, rejected %d, errors %d; want %d decided, no errors",
			stats.sent, stats.placed, stats.rejected, stats.errors, n)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st svc.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	var decided int64
	for tier := range st.AcceptedByTier {
		decided += st.AcceptedByTier[tier] + st.RejectedByTier[tier]
	}
	if decided != n {
		t.Errorf("daemon decided %d VMs, want %d", decided, n)
	}
}
