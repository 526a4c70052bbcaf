package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/svc"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// The service workloads run the daemon in this process — svc.Open and
// svc.NewServer, exactly what cmd/risasvc wires — behind a real loopback
// listener, with its data directory on the real filesystem so every
// acknowledged placement has paid a real fsync.

// svcLoad is the offered virtual-time load of the placement stream as a
// share of what 18 racks sustain: low enough that the fixed-rate stream
// is never refused for capacity (about 560 VMs resident).
const svcLoad = 0.80

// placeRate is the closed loop's budget: placements per second of
// --seconds, sized so that the load, with its share of reference requests,
// takes about that long on the box the benchmark was defined on in its
// slow spells (two clients get 1.1-2.2k/s decided there).
const placeRate = 1000

// pacedRate is the open loop's send rate, reference requests included: a
// fifth to a third of what one connection can get answered, depending on
// how fast the box's disk flushes that minute. Closer to saturation, the
// wait behind the previous request would grow faster than the flush time.
const pacedRate = 500

// recoverCopies is how many byte-identical copies of the crashed data
// directory are reopened; svc.recover_ms is their median.
const recoverCopies = 5

// mix says which requests of a load go to the reference server instead
// of the daemon (see refServer): of every period requests the first ref.
// Requests are grouped into slices of slice consecutive requests; each
// slice holds both kinds, a few tenths of a second apart at most, and
// yields one daemon-to-reference ratio.
type mix struct {
	period, ref, slice int
}

var (
	// closedMix sends whole blocks of 100 to the reference server, so that
	// the daemon always faces both connections, as the reference does.
	closedMix = mix{period: 500, ref: 100, slice: 500}
	// pacedMix sends every fifth request of the schedule there: the daemon
	// is paced at four fifths of pacedRate, evenly.
	pacedMix = mix{period: 5, ref: 1, slice: 500}
	// noRef sends everything to the daemon: the traced pass's one-connection
	// probe, which is read as counted.
	noRef = mix{period: 1, ref: 0, slice: 1 << 30}
)

// toRef reports whether request i of the load is a reference request,
// and which daemon request (counting from 0) it is otherwise.
func (m mix) toRef(i int) (ref bool, daemonIndex int) {
	block, slot := i/m.period, i%m.period
	if slot < m.ref {
		return true, 0
	}
	return false, block*(m.period-m.ref) + slot - m.ref
}

// total is how many requests a load sends to get n of them to the daemon.
func (m mix) total(n int) int {
	per := m.period - m.ref
	blocks, rest := n/per, n%per
	if rest == 0 {
		return blocks * m.period
	}
	return blocks*m.period + m.ref + rest
}

// The reference server's readings on the box the benchmark was defined
// on, in a quiet spell: the service workloads report their request
// timings as the ratio to the reference measured alongside, times these.
const (
	nominalRefClosedP50US = 800  // median round trip, two closed-loop connections
	nominalRefClosedPerS  = 2400 // requests per second, two closed-loop connections
	nominalRefPacedP50US  = 700  // median round trip from the due time, one paced connection
	nominalRefPacedPerS   = 100  // its fifth of pacedRate
)

func svcConfig() svc.Config {
	n := network.DefaultConfig()
	n.BoxUplinks = 16
	return svc.Config{Topology: topology.DefaultConfig(), Network: n, Spares: 2, Algo: "RISA"}
}

// svcVMs draws the first n VMs of the stationary mix.
func svcVMs(seed int64, n int) ([]workload.VM, error) {
	cfg := svcConfig()
	st, err := sched.NewState(cfg.Topology, cfg.Network)
	if err != nil {
		return nil, err
	}
	stream, err := stationaryMix(seed, st.Cluster, svcLoad).NewStream()
	if err != nil {
		return nil, err
	}
	return workload.Take(stream, n).VMs, nil
}

// daemon is one in-process placement service.
type daemon struct {
	dir  string
	srv  *svc.Server
	http *httptest.Server
}

// startDaemon opens a fresh data directory and serves it.
func startDaemon(dir string) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	eng, err := svc.Open(dir, svcConfig(), 0)
	if err != nil {
		return nil, err
	}
	srv := svc.NewServer(eng, 0)
	srv.Start()
	return &daemon{dir: dir, srv: srv, http: httptest.NewServer(srv.Handler())}, nil
}

// stop closes the listener, drains the worker and closes the engine.
func (d *daemon) stop() error {
	d.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

// refServer is the harness's own minimal placement service: it decodes
// the same request, appends a journal-sized record to a file in the same
// directory and fsyncs it, one request at a time on one worker, and
// answers. It does what any durable service must and nothing else, on the
// same disk and through the same HTTP stack at the same moment, so the
// daemon's timings divided by its timings say what the daemon adds and
// stay put when the disk or the box slows down. Nothing in the repository
// can move it.
type refServer struct {
	http    *httptest.Server
	journal *os.File
	queue   chan chan error
	done    chan struct{}
}

func startRef(dir string) (*refServer, error) {
	f, err := os.CreateTemp(dir, "ref-journal-")
	if err != nil {
		return nil, err
	}
	s := &refServer{journal: f, queue: make(chan chan error, 256), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		rec := make([]byte, journalRecordBytes)
		for reply := range s.queue {
			_, err := f.Write(rec)
			if err == nil {
				err = f.Sync()
			}
			reply <- err
		}
	}()
	s.http = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var p svc.PlaceRequest
		if err := json.NewDecoder(req.Body).Decode(&p); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply := make(chan error, 1)
		s.queue <- reply
		if err := <-reply; err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(svc.Outcome{VMID: p.ID, Tier: p.Tier, Accepted: true})
	}))
	return s, nil
}

// stop closes the listener, lets the worker finish and removes the file.
func (s *refServer) stop() error {
	s.http.Close()
	close(s.queue)
	<-s.done
	err := s.journal.Close()
	if rmErr := os.Remove(s.journal.Name()); err == nil {
		err = rmErr
	}
	return err
}

// conn is one client connection: its own transport, capped at a single
// connection to the daemon, so "n clients" means n connections.
type conn struct {
	base string
	tr   *http.Transport
	c    *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &conn{base: base, tr: tr, c: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole reply, so the connection is
// reused. A nil body sends a GET.
func (c *conn) do(path string, body any) (int, []byte, error) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = c.c.Get(c.base + path)
	} else {
		var b []byte
		if b, err = json.Marshal(body); err != nil {
			return 0, nil, err
		}
		resp, err = c.c.Post(c.base+path, "application/json", bytes.NewReader(b))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// placeRetries bounds how often a shed placement is sent again.
const placeRetries = 8

// place gets one VM decided: marshal, POST /place, decode the outcome. A
// request the daemon sheds (429/503) is sent again after a backoff; any
// other failure is final.
func (c *conn) place(vm workload.VM, bo *svc.Backoff) (svc.Outcome, error) {
	req := svc.PlaceRequest{
		ID: vm.ID, Tier: vm.Tier, Arrival: vm.Arrival, Lifetime: vm.Lifetime,
		CPU: int64(vm.Req[units.CPU]), RAM: int64(vm.Req[units.RAM]), Storage: int64(vm.Req[units.Storage]),
	}
	var out svc.Outcome
	for try := 0; ; try++ {
		status, body, err := c.do("/place", req)
		if err != nil {
			return out, err
		}
		switch status {
		case http.StatusOK:
			bo.Reset()
			return out, json.Unmarshal(body, &out)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if try == placeRetries {
				return out, fmt.Errorf("vm %d still shed after %d tries", vm.ID, try+1)
			}
			time.Sleep(bo.Next())
		default:
			return out, fmt.Errorf("vm %d: status %d: %s", vm.ID, status, strings.TrimSpace(string(body)))
		}
	}
}

// placed is one answered request as the client saw it.
type placed struct {
	slice   int           // which slice of the load it belongs to
	begin   time.Duration // send (closed loop) or due time (open loop), since the load began
	done    time.Duration // completion, since the load began
	latency time.Duration // done - begin
}

// loadStats is the outcome of one load phase.
type loadStats struct {
	placed   []placed // every decided placement, in completion order
	ref      []placed // every reference request answered, in completion order
	accepted int
	failed   int // requests that got no answer, of either kind
	wall     time.Duration
	firstErr error
}

// add records one request's outcome: an answer with its timing, or a
// failure.
func (l *loadStats) add(toRef bool, out svc.Outcome, err error, p placed) {
	switch {
	case err != nil:
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	case toRef:
		l.ref = append(l.ref, p)
	default:
		if out.Accepted {
			l.accepted++
		}
		l.placed = append(l.placed, p)
	}
}

// merge adds what another connection saw.
func (l *loadStats) merge(o *loadStats) {
	l.placed = append(l.placed, o.placed...)
	l.ref = append(l.ref, o.ref...)
	l.accepted += o.accepted
	l.failed += o.failed
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

func (l *loadStats) latenciesUS() []float64 { return latenciesUS(l.placed) }

func latenciesUS(ps []placed) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = float64(p.latency.Nanoseconds()) / 1e3
	}
	return out
}

// closedLoop has each of clients connections send its next request when
// the previous one returns, until n placements have gone to the daemon at
// base or, with a positive limit, that much time has passed; the requests
// m names go to the reference server at ref instead. The VMs placed are a
// prefix of vms; sent is its length.
func closedLoop(base, ref string, vms []workload.VM, m mix, clients int, seed int64, limit time.Duration) (total *loadStats, sent int) {
	var next, daemon atomic.Int64
	parts := make([]loadStats, clients)
	requests := m.total(len(vms))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			toDaemon, toRef := newConn(base), newConn(ref)
			defer toDaemon.close()
			defer toRef.close()
			bo := svc.NewBackoff(time.Millisecond, 100*time.Millisecond, seed+int64(w))
			for {
				if limit > 0 && time.Since(start) > limit {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				isRef, di := m.toRef(i)
				c, vm := toDaemon, vms[di]
				if isRef {
					c = toRef
				} else {
					daemon.Add(1)
				}
				begin := time.Since(start)
				out, err := c.place(vm, bo)
				done := time.Since(start)
				parts[w].add(isRef, out, err, placed{slice: i / m.slice, begin: begin, done: done, latency: done - begin})
			}
		}(w)
	}
	wg.Wait()
	total = &loadStats{wall: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	byDone := func(p []placed) { sort.Slice(p, func(i, j int) bool { return p[i].done < p[j].done }) }
	byDone(total.placed)
	byDone(total.ref)
	return total, int(daemon.Load())
}

// dueTimes is the open loop's fixed send schedule: request i is due
// i/rate after the start, whatever happened to the requests before it.
func dueTimes(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// openLoop sends the load on one connection's schedule at rate requests
// per second: the requests m names go to the reference server at ref, the
// others place vms, in order, at base. A request whose predecessor is
// still outstanding when it falls due goes out as soon as that has
// returned and is still timed from its due time, so a stall is charged to
// every request it delayed. lagUS holds, for the requests that found the
// sender idle, how late the sender itself woke up.
func openLoop(base, ref string, vms []workload.VM, m mix, rate float64, seed int64) (stats *loadStats, lagUS []float64) {
	toDaemon, toRef := newConn(base), newConn(ref)
	defer toDaemon.close()
	defer toRef.close()
	bo := svc.NewBackoff(time.Millisecond, 100*time.Millisecond, seed)
	due := dueTimes(m.total(len(vms)), rate)
	stats = &loadStats{}
	start := time.Now()
	for i := range due {
		if due[i] > time.Since(start) {
			waitUntil(start, due[i])
			lagUS = append(lagUS, float64((time.Since(start)-due[i]).Nanoseconds())/1e3)
		}
		isRef, di := m.toRef(i)
		c := toDaemon
		if isRef {
			c = toRef
		}
		out, err := c.place(vms[di], bo)
		done := time.Since(start)
		stats.add(isRef, out, err, placed{slice: i / m.slice, begin: due[i], done: done, latency: done - due[i]})
	}
	stats.wall = time.Since(start)
	return stats, lagUS
}

// sleepSlack is how much earlier than a due time the sender stops
// sleeping and starts polling the clock. Timers on the box this was
// defined on fire up to ~1.2 ms late, longer than the whole send interval,
// so a sender that only slept would itself be the bottleneck.
const sleepSlack = 2 * time.Millisecond

// waitUntil returns when due has passed since start: it sleeps while the
// due time is far and then polls the clock, yielding the processor to the
// daemon's goroutines between looks.
func waitUntil(start time.Time, due time.Duration) {
	for {
		wait := due - time.Since(start)
		switch {
		case wait <= 0:
			return
		case wait > sleepSlack:
			time.Sleep(wait - sleepSlack)
		default:
			runtime.Gosched()
		}
	}
}

// checkLog fetches the daemon's placement log and checks that every VM
// sent has exactly one line in it. It returns the log and the number of
// VMs missing or duplicated.
func checkLog(c *conn, vms []workload.VM) ([]byte, int, error) {
	status, log, err := c.do("/placements", nil)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /placements: status %d", status)
	}
	seen := map[int]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(log)), "\n") {
		for _, f := range strings.Fields(line) {
			if id, ok := strings.CutPrefix(f, "vm="); ok {
				n, err := strconv.Atoi(id)
				if err != nil {
					return nil, 0, fmt.Errorf("placement log line %q: %w", line, err)
				}
				seen[n]++
			}
		}
	}
	bad := 0
	for _, vm := range vms {
		if seen[vm.ID] != 1 {
			bad++
		}
	}
	return log, bad, nil
}

// crashAndRecover treats the idle daemon's data directory as what a
// crash would leave (every acknowledged record is already fsync'd; the
// engine is never closed before the copy), copies it recoverCopies times,
// then reopens each copy, timing svc.Open and comparing the recovered
// placement log with the one the daemon served before.
func crashAndRecover(r *run, d *daemon, preCrash []byte, placements int) error {
	var copies []string
	for i := 0; i < recoverCopies; i++ {
		dst := fmt.Sprintf("%s-crash%d", d.dir, i)
		if err := copyDir(d.dir, dst); err != nil {
			return err
		}
		copies = append(copies, dst)
	}
	if err := d.stop(); err != nil {
		return err
	}
	var ms []float64
	for _, dir := range copies {
		start := time.Now()
		eng, err := svc.Open(dir, svcConfig(), 0)
		if err != nil {
			return fmt.Errorf("reopening %s: %w", dir, err)
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		var log bytes.Buffer
		if err := eng.WritePlacements(&log); err != nil {
			return err
		}
		r.attempted++
		if !bytes.Equal(log.Bytes(), preCrash) {
			r.failf(1, "placement log recovered from %s differs from the pre-crash log", dir)
		}
		if err := eng.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	r.set("svc.recover_ms", median(ms))
	r.notef("reopening the crashed directory (%d placements) took %.1f ms, median of %d copies", placements, median(ms), len(ms))
	return os.RemoveAll(d.dir)
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// svcSetup is the service workloads' set-up: generate the VMs, open a
// fresh data directory, start the worker and the listener. It is repeated
// (each daemon but the last is stopped again, untimed). The reference
// server is the harness's and is started outside the timed part.
func svcSetup(r *run, n int) (*daemon, *refServer, []workload.VM, error) {
	before := time.Since(procStart)
	var d *daemon
	var vms []workload.VM
	setups, err := repeatTimed(func() (time.Duration, error) {
		if d != nil {
			if err := d.stop(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		var err error
		if vms, err = svcVMs(r.seed, n); err != nil {
			return 0, err
		}
		d, err = startDaemon(r.dataDir("daemon"))
		return time.Since(start), err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	r.setupDone(before, setups)
	ref, err := startRef(r.outDir)
	return d, ref, vms, err
}

// minSliceSamples is the fewest requests of one kind a slice must hold
// for its ratio to count: the last slice of a load is usually partial.
const minSliceSamples = 20

// sliceStat is one kind of request in one slice.
type sliceStat struct {
	latUS      []float64
	begin, end time.Duration
}

func (s *sliceStat) add(p placed) {
	if len(s.latUS) == 0 || p.begin < s.begin {
		s.begin = p.begin
	}
	s.end = max(s.end, p.done)
	s.latUS = append(s.latUS, float64(p.latency.Nanoseconds())/1e3)
}

// perSec is the slice's rate from its first send to its last answer.
func (s *sliceStat) perSec() float64 { return float64(len(s.latUS)) / (s.end - s.begin).Seconds() }

// sliceRatios pairs, slice by slice, the daemon's placements with the
// reference requests sent in the same few tenths of a second, and returns
// the daemon's median latency and rate as multiples of the reference's.
func sliceRatios(l *loadStats) (p50, perSec []float64) {
	slices := map[int]*[2]sliceStat{}
	for kind, ps := range [2][]placed{l.placed, l.ref} {
		for _, p := range ps {
			if slices[p.slice] == nil {
				slices[p.slice] = &[2]sliceStat{}
			}
			slices[p.slice][kind].add(p)
		}
	}
	for _, s := range slices {
		d, ref := &s[0], &s[1]
		if len(d.latUS) < minSliceSamples || len(ref.latUS) < minSliceSamples {
			continue
		}
		p50 = append(p50, median(d.latUS)/median(ref.latUS))
		perSec = append(perSec, d.perSec()/ref.perSec())
	}
	return p50, perSec
}

// reportLoad sets the end-to-end metrics a load phase yields and counts
// its operations. A request's time on this box is mostly the disk's, and
// the disk is shared: its flush time moves severalfold within seconds and
// between spells lasting minutes. So the daemon's timings are read against
// the reference server's, slice by slice, and reported as the median ratio
// times what the reference reads on a quiet box. paced says the load was
// sent on one connection's schedule, which fixes the two rates' ratio:
// place_per_s then reads the schedule's share whatever happens.
func reportLoad(r *run, l *loadStats, paced bool) error {
	decided := len(l.placed)
	r.attempted += decided + l.failed
	if l.failed > 0 {
		r.failf(l.failed, "%d requests got no answer; first: %v", l.failed, l.firstErr)
	}
	p50, perSec := sliceRatios(l)
	if len(p50) == 0 {
		return fmt.Errorf("no slice of the load holds %d placements and %d reference requests", minSliceSamples, minSliceSamples)
	}
	nominalP50, nominalPerS := float64(nominalRefClosedP50US), float64(nominalRefClosedPerS)
	if paced {
		nominalP50, nominalPerS = nominalRefPacedP50US, nominalRefPacedPerS
	}
	rate := median(perSec) * nominalPerS
	r.set("place_p50_us", median(p50)*nominalP50)
	r.set("place_per_s", rate)
	r.set("host_ns_per_vm", 1e9/rate)
	r.set("accept_pct", float64(l.accepted)/float64(decided)*100)

	raw, ref := summarize(l.latenciesUS()), summarize(latenciesUS(l.ref))
	r.notef("placements as counted: n=%d median %.1f us, p%g %.1f us, %.0f/s", raw.N, raw.Median, raw.TailP, raw.Tail, float64(decided)/l.wall.Seconds())
	r.notef("reference requests alongside: n=%d median %.1f us, p%g %.1f us", ref.N, ref.Median, ref.TailP, ref.Tail)
	r.notef("over %d slices the daemon's median latency is %.3f x the reference's and its rate %.3f x; the metrics are these times the reference's nominal readings", len(p50), median(p50), median(perSec))
	return nil
}

// finishSvc is the common tail of both service workloads: peak RSS, the
// placement log check, then crash and recovery.
func finishSvc(r *run, d *daemon, vms []workload.VM) error {
	// Peak RSS is read first: fetching and parsing the whole placement
	// log is the harness's memory, not the daemon's.
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	c := newConn(d.http.URL)
	defer c.close()
	log, bad, err := checkLog(c, vms)
	if err != nil {
		return err
	}
	if bad > 0 {
		r.failf(bad, "%d VMs missing from or duplicated in /placements", bad)
	}
	return crashAndRecover(r, d, log, len(vms))
}

// runPlace2c is svc-place-2c: a closed loop of two connections.
func runPlace2c(r *run) error {
	n := int(r.seconds * placeRate)
	if r.trace {
		n /= 2 // the traced pass spends the other half on the direct layer calls
	}
	d, ref, vms, err := svcSetup(r, n)
	if err != nil {
		return err
	}
	// The budget is a count, so that history length and with it snapshot
	// and recovery cost are the same from run to run; the time limit only
	// keeps a run on a box having a very slow minute inside the driver's
	// time budget.
	load, sent := closedLoop(d.http.URL, ref.http.URL, vms, closedMix, 2, r.seed, time.Duration(r.seconds*float64(time.Second)))
	vms = vms[:sent]
	if sent < n {
		r.notef("stopped at the time limit after %d of %d placements", sent, n)
	}
	if err := ref.stop(); err != nil {
		return err
	}
	if err := reportLoad(r, load, false); err != nil {
		return err
	}
	if r.trace {
		if err := closedLoopLayers(r, d, load); err != nil {
			return err
		}
	}
	if err := finishSvc(r, d, vms); err != nil {
		return err
	}
	if r.trace {
		return svcLayers(r)
	}
	return nil
}

// closedLoopLayers reads the traced pass's figures off the closed loop
// itself: tail latencies, throughput in the first and last quarter (the
// daemon's state grows with every placement), and the shed and expired
// counters. Queue depth is not sampled here: both connections are busy
// placing, and two closed-loop clients cannot queue more than two.
func closedLoopLayers(r *run, d *daemon, l *loadStats) error {
	rttLayers(r, l)
	q := len(l.placed) / 4
	if q > 0 {
		r.set("svc.place_per_s.q1", float64(q)/l.placed[q-1].done.Seconds())
		r.set("svc.place_per_s.q4", float64(q)/(l.placed[len(l.placed)-1].done-l.placed[len(l.placed)-1-q].done).Seconds())
	}
	c := newConn(d.http.URL)
	defer c.close()
	st, err := getStats(c)
	if err != nil {
		return err
	}
	r.set("svc.queue.shed", float64(st.Shed))
	r.set("svc.queue.expired", float64(st.Expired))
	return nil
}

// rttLayers reports a load's round trips as counted, the daemon's and
// the reference server's: what the end-to-end ratios were made from.
func rttLayers(r *run, l *loadStats) {
	lat, ref := l.latenciesUS(), latenciesUS(l.ref)
	sort.Float64s(lat)
	sort.Float64s(ref)
	r.set("svc.rtt_us_p50", quantile(lat, 50))
	r.set("svc.rtt_p99_us", quantile(lat, 99))
	r.set("svc.rtt_p999_us", quantile(lat, 99.9))
	r.set("svc.rtt_max_us", lat[len(lat)-1])
	r.set("ref.rtt_us_p50", quantile(ref, 50))
	r.set("ref.rtt_p99_us", quantile(ref, 99))
}

func getStats(c *conn) (svc.Stats, error) {
	var st svc.Stats
	status, body, err := c.do("/stats", nil)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

// mixTick is the control connection's think time.
const mixTick = 20 * time.Millisecond

// mixStats is what the control connection measured.
type mixStats struct {
	statsUS, mutateUS, swapUS []float64
	ops, failed               int
	depthMax                  int
	last                      svc.Stats
	firstErr                  error
}

// controlLoop is svc-paced-mix's second connection: a closed loop with
// think time. Every tick it reads /stats; once a second it fails a box
// and heals it again; every five seconds it swaps RISA and RISA-BF; at
// half time it brings one spare rack into service.
func controlLoop(base string, total time.Duration, stop <-chan struct{}) *mixStats {
	c := newConn(base)
	defer c.close()
	m := &mixStats{}
	timed := func(path string, body any, into *[]float64) {
		start := time.Now()
		status, reply, err := c.do(path, body)
		*into = append(*into, float64(time.Since(start).Nanoseconds())/1e3)
		m.ops++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", path, status, strings.TrimSpace(string(reply)))
		}
		if err != nil {
			m.failed++
			if m.firstErr == nil {
				m.firstErr = err
			}
			return
		}
		if path == "/stats" {
			if json.Unmarshal(reply, &m.last) == nil && m.last.QueueDepth > m.depthMax {
				m.depthMax = m.last.QueueDepth
			}
		}
	}
	cfg := svcConfig()
	algo := "RISA"
	ticks := int(total / mixTick)
	perSec := int(time.Second / mixTick)
	start := time.Now()
	for k := 0; k < ticks; k++ {
		if wait := time.Duration(k)*mixTick - time.Since(start); wait > 0 {
			select {
			case <-stop:
				return m
			case <-time.After(wait):
			}
		}
		timed("/stats", nil, &m.statsUS)
		if k%perSec == perSec/2 {
			sec := k / perSec
			box := svc.MutateRequest{Scope: "box", Rack: sec % cfg.Topology.Racks, Box: sec % cfg.Topology.BoxesPerRack()}
			timed("/fail", box, &m.mutateUS)
			timed("/heal", box, &m.mutateUS)
		}
		if k%(5*perSec) == 5*perSec-1 {
			if algo == "RISA" {
				algo = "RISA-BF"
			} else {
				algo = "RISA"
			}
			timed("/swap", svc.SwapRequest{Algo: algo}, &m.swapUS)
		}
		if k == ticks/2 {
			timed("/addrack", struct{}{}, &m.mutateUS)
		}
	}
	return m
}

// runPacedMix is svc-paced-mix: an open loop of placements on one
// connection's schedule beside reads and control-lane mutations on
// another.
func runPacedMix(r *run) error {
	// The schedule holds seconds x pacedRate requests, reference requests
	// included.
	n := int(r.seconds*pacedRate) * (pacedMix.period - pacedMix.ref) / pacedMix.period
	d, ref, vms, err := svcSetup(r, n)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var mix *mixStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mix = controlLoop(d.http.URL, time.Duration(r.seconds*float64(time.Second)), stop)
	}()
	load, lagUS := openLoop(d.http.URL, ref.http.URL, vms, pacedMix, pacedRate, r.seed)
	close(stop)
	wg.Wait()
	if err := ref.stop(); err != nil {
		return err
	}

	if err := reportLoad(r, load, true); err != nil {
		return err
	}
	r.attempted += mix.ops
	if mix.failed > 0 {
		r.failf(mix.failed, "%d control operations failed; first: %v", mix.failed, mix.firstErr)
	}
	if r.trace {
		rttLayers(r, load)
		lag := summarize(lagUS)
		r.set("loadgen.lag_us_p99", quantile(lagUS, 99))
		r.set("svc.stats_us_p50", median(mix.statsUS))
		r.set("svc.mutate_us_p50", median(mix.mutateUS))
		r.set("svc.swap_us_p50", median(mix.swapUS))
		r.set("svc.queue.depth_max", float64(mix.depthMax))
		r.set("svc.queue.shed", float64(mix.last.Shed))
		r.set("svc.queue.expired", float64(mix.last.Expired))
		r.notef("sender lag: n=%d median %.1f us, p%g %.1f us (requests that found the connection free)", lag.N, lag.Median, lag.TailP, lag.Tail)
		r.notef("control connection: %d /stats, %d /fail+/heal+/addrack, %d /swap", len(mix.statsUS), len(mix.mutateUS), len(mix.swapUS))
		hostLayers(r)
	}
	return finishSvc(r, d, vms)
}
