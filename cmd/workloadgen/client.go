package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"risa/internal/svc"
	"risa/internal/units"
	"risa/internal/workload"
)

// clientOptions parameterizes HTTP mode: instead of writing a CSV, the
// generated trace is fired at a running risasvc daemon.
type clientOptions struct {
	url        string
	count      int     // VMs to send (0 = whole trace)
	rate       float64 // offered load in requests/s (0 = closed loop)
	workers    int     // concurrent senders (1 = deterministic order)
	deadlineMS int64   // per-request queue deadline passed to the daemon
	seed       int64   // backoff jitter seed
}

// clientStats aggregates one run; mu guards everything (senders are few
// and slow compared to the daemon, contention is irrelevant).
type clientStats struct {
	mu        sync.Mutex
	sent      int
	placed    int
	rejected  int
	shed      int
	expired   int
	errors    int
	retries   int
	latencies [workload.NumTiers][]time.Duration
}

// runClient drives the daemon with the trace and prints a saturation
// summary: offered vs accepted load, shed/expired counts, and client
// latency percentiles per tier. Retries go through svc.Backoff (capped
// exponential, seeded jitter) honoring the daemon's Retry-After hint, so
// a saturated daemon is never spun on; VM IDs make retries idempotent
// on the daemon side.
func runClient(tr *workload.Trace, opts clientOptions) error {
	vms := tr.VMs
	if opts.count > 0 && opts.count < len(vms) {
		vms = vms[:opts.count]
	}
	if opts.workers <= 0 {
		opts.workers = 1
	}
	var pace <-chan time.Time
	if opts.rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / opts.rate))
		defer t.Stop()
		pace = t.C
	}
	work := make(chan workload.VM)
	stats := &clientStats{}
	client := &http.Client{Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bo := svc.NewBackoff(10*time.Millisecond, 2*time.Second, opts.seed+int64(w))
			for vm := range work {
				sendOne(client, opts, bo, vm, stats)
			}
		}(w)
	}
	for _, vm := range vms {
		if pace != nil {
			<-pace
		}
		work <- vm
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)
	printClientSummary(opts, stats, wall)
	return nil
}

// sendOne delivers one VM, retrying shed/unavailable/transport failures
// with backoff until the daemon decides (or the daemon reports the
// request expired past its deadline). Whatever the outcome, the next VM's
// first retry starts from the first-attempt delay.
func sendOne(client *http.Client, opts clientOptions, bo *svc.Backoff, vm workload.VM, stats *clientStats) {
	defer bo.Reset()
	req := svc.PlaceRequest{
		ID:         vm.ID,
		Tier:       vm.Tier,
		Arrival:    vm.Arrival,
		Lifetime:   vm.Lifetime,
		CPU:        int64(vm.Req[units.CPU]),
		RAM:        int64(vm.Req[units.RAM]),
		Storage:    int64(vm.Req[units.Storage]),
		DeadlineMS: opts.deadlineMS,
	}
	body, _ := json.Marshal(req)
	stats.mu.Lock()
	stats.sent++
	stats.mu.Unlock()
	t0 := time.Now()
	for {
		resp, err := client.Post(opts.url+"/place", "application/json", bytes.NewReader(body))
		if err != nil {
			// Daemon down (crash, restart, drain): back off and retry — the
			// request is idempotent by VM ID.
			stats.note(func(s *clientStats) { s.retries++ })
			time.Sleep(bo.Next())
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// Read the daemon's {"error": …} body (bounded by its
			// writeError) to the end: net/http reuses a connection only
			// once its response is drained, and a retry that dials anew
			// adds load exactly when the daemon is shedding it.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var out svc.Outcome
			err := json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			lat := time.Since(t0)
			stats.note(func(s *clientStats) {
				if err != nil {
					s.errors++
					return
				}
				if out.Accepted {
					s.placed++
				} else {
					s.rejected++
				}
				if vm.Tier >= 0 && vm.Tier < workload.NumTiers {
					s.latencies[vm.Tier] = append(s.latencies[vm.Tier], lat)
				}
			})
			return
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			delay := bo.Next()
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				if hinted := time.Duration(ra) * time.Second; hinted > delay {
					delay = hinted
				}
			}
			stats.note(func(s *clientStats) { s.shed++; s.retries++ })
			time.Sleep(delay)
		case http.StatusGatewayTimeout:
			stats.note(func(s *clientStats) { s.expired++ })
			return // the deadline was the contract: drop, don't retry
		default:
			stats.note(func(s *clientStats) { s.errors++ })
			return
		}
	}
}

// note runs one mutation under the stats lock.
func (s *clientStats) note(f func(*clientStats)) {
	s.mu.Lock()
	f(s)
	s.mu.Unlock()
}

// printClientSummary renders the run: aggregate rates first, then
// per-tier decision latency percentiles.
func printClientSummary(opts clientOptions, s *clientStats, wall time.Duration) {
	secs := wall.Seconds()
	fmt.Printf("url=%s sent=%d placed=%d rejected=%d shed=%d expired=%d errors=%d retries=%d\n",
		opts.url, s.sent, s.placed, s.rejected, s.shed, s.expired, s.errors, s.retries)
	fmt.Printf("wall=%.2fs offered=%.1f/s decided=%.1f/s\n", secs,
		float64(s.sent)/secs, float64(s.placed+s.rejected)/secs)
	for tier := 0; tier < workload.NumTiers; tier++ {
		lats := s.latencies[tier]
		if len(lats) == 0 {
			continue
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Printf("tier %d: n=%d p50=%s p95=%s p99=%s\n", tier, len(lats),
			percentile(lats, 50), percentile(lats, 95), percentile(lats, 99))
	}
}

// percentile picks the pth percentile of sorted latencies.
func percentile(sorted []time.Duration, p int) time.Duration {
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i].Round(10 * time.Microsecond)
}
