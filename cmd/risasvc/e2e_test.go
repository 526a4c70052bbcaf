package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"risa/internal/faults"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/svc"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// daemonEnv, set to 1, makes the test binary run main() instead of its
// tests: the end-to-end test re-executes itself as the daemon, so nothing
// is built inside a test.
const daemonEnv = "RISASVC_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The shape of the daemon under test. Three racks and a spare are small
// enough that the synthetic trace fills them: the log carries rejections
// as well as intra- and inter-rack placements.
const (
	e2eRacks  = 3
	e2eSpares = 1
	e2eVMs    = 300
	snapEvery = 64
	// killAfter is how many VMs the crashed daemon acknowledges before its
	// kill -9: past the first snapshot, and not on a multiple of
	// snapEvery, so the restart restores a snapshot and replays a suffix.
	killAfter = 100
	// answerWithin bounds one placement, retries included; a live daemon
	// that holds a request this long has lost it.
	answerWithin = 10 * time.Second
)

// TestDaemonMatchesDriverAcrossKill is the daemon's end-to-end judge. The
// same request script — e2eVMs placements, the killAfter-th sent twice as
// by a client that lost its acknowledgement — runs against two daemons:
// one left alone, one kill -9'd after killAfter acknowledgements and
// restarted on its data directory while the client retries. The uncrashed
// daemon's /placements must equal, byte for byte, lines formatted here from
// an in-process sim.Driver fed the same VMs; the crashed one's must equal
// the uncrashed one's. TestDriversAgree ties the Driver to Run and
// RunStream, so this closes the chain daemon ≡ Driver ≡ Run.
func TestDaemonMatchesDriverAcrossKill(t *testing.T) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.N = e2eVMs
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vms := tr.VMs
	want := driverLog(t, vms)

	uncrashed := func() []byte {
		d := startDaemon(t, t.TempDir())
		c := newClient(d.url)
		first := c.placeAll(t, vms[:killAfter])
		c.resend(t, vms[killAfter-1], first)
		c.placeAll(t, vms[killAfter:])
		return c.get(t, "/placements")
	}()
	if n, g, w := firstDiff(uncrashed, want); n > 0 {
		t.Fatalf("the uncrashed daemon's /placements diverges from the driver's at line %d:\n daemon: %s\n driver: %s", n, g, w)
	}

	dir := t.TempDir()
	d := startDaemon(t, dir)
	c := newClient(d.url)
	first := c.placeAll(t, vms[:killAfter])
	d.kill(t)
	if fi, err := os.Stat(filepath.Join(dir, "snapshot.gob")); err != nil || fi.Size() == 0 {
		t.Fatalf("no snapshot at the kill (%v): the restart would replay from genesis only", err)
	}
	restarted := make(chan struct{})
	t.Cleanup(func() { <-restarted })
	go func() { // the client retries through the outage meanwhile
		defer close(restarted)
		time.Sleep(50 * time.Millisecond)
		r := startDaemon(t, dir)
		c.base.Store(&r.url)
	}()
	c.resend(t, vms[killAfter-1], first)
	if n, want := replayed(t, c.get(t, "/metrics")), killAfter%snapEvery; n != float64(want) {
		t.Fatalf("the restarted daemon replayed %g journal records, want the %d behind the last snapshot", n, want)
	}
	c.placeAll(t, vms[killAfter:])
	crashed := c.get(t, "/placements")
	if n, g, w := firstDiff(crashed, uncrashed); n > 0 {
		t.Fatalf("across kill -9 the daemon's /placements diverges from the uncrashed run's at line %d:\n crashed:   %s\n uncrashed: %s", n, g, w)
	}
}

// TestDaemonDropsStalledConnections: the daemon closes the connection of a
// client that sends half a request header and then nothing, once
// readHeaderTimeout has passed, instead of holding it for good; and its
// server carries both connection timeouts.
func TestDaemonDropsStalledConnections(t *testing.T) {
	t.Parallel()
	if s := newHTTPServer(nil); readHeaderTimeout <= 0 || idleTimeout <= 0 ||
		s.ReadHeaderTimeout != readHeaderTimeout || s.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts: header %v, idle %v; want %v and %v, both positive",
			s.ReadHeaderTimeout, s.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	d := startDaemon(t, t.TempDir())
	conn, err := net.Dial("tcp", strings.TrimPrefix(d.url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	began := time.Now()
	if _, err := io.WriteString(conn, "POST /place HTTP/1.1\r\nHost: risasvc\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(began.Add(readHeaderTimeout + answerWithin))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("a half-sent header still holds its connection %v later: %v", time.Since(began), err)
	}
	if held := time.Since(began); held < readHeaderTimeout {
		t.Fatalf("the connection closed after %v, before the %v header timeout", held, readHeaderTimeout)
	}
}

// driverLog is the oracle: vms fed one by one to a sim.Driver built as the
// daemon's genesis builds its own — the in-service racks plus the spares,
// each spare darkened by a rack failure — rendered as placement-log lines
// formatted here, not by svc.Outcome, with journal sequence numbers from 1.
func driverLog(t *testing.T, vms []workload.VM) []byte {
	t.Helper()
	tcfg := topology.DefaultConfig()
	tcfg.Racks = e2eRacks + e2eSpares
	st, err := sched.NewState(tcfg, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sch, err := sched.New("RISA", st)
	if err != nil {
		t.Fatal(err)
	}
	d := sim.NewDriver(st, sch)
	for r := e2eRacks; r < tcfg.Racks; r++ {
		if err := d.Apply(faults.Event{Tier: faults.RackTier, Rack: r}); err != nil {
			t.Fatal(err)
		}
	}
	box := func(p topology.Placement) int {
		if p.IsZero() {
			return -1
		}
		return p.Box.Rack()*tcfg.BoxesPerRack() + p.Box.Index()
	}
	var b bytes.Buffer
	var rejected, inter int
	for i, vm := range vms {
		a, at, err := d.Place(vm)
		if err != nil {
			rejected++
			fmt.Fprintf(&b, "seq=%d vm=%d tier=%d t=%d reject reason=%q\n", i+1, vm.ID, vm.Tier, at, err.Error())
			continue
		}
		if a.InterRack() {
			inter++
		}
		fmt.Fprintf(&b, "seq=%d vm=%d tier=%d t=%d place cpu=%d ram=%d sto=%d interrack=%v\n",
			i+1, vm.ID, vm.Tier, at, box(a.CPU), box(a.RAM), box(a.STO), a.InterRack())
	}
	if rejected == 0 || inter == 0 || rejected+inter == len(vms) {
		t.Fatalf("fixture too weak: %d rejected, %d inter-rack of %d", rejected, inter, len(vms))
	}
	return b.Bytes()
}

// daemon is one child process running main().
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once the process is reaped
}

// servingOn matches the line main prints once it listens.
var servingOn = regexp.MustCompile(`risasvc: serving on (\S+) `)

// startDaemon re-executes the test binary as a daemon on dir, listening on
// a free loopback port, and returns once the daemon names it. It may run
// off the test goroutine, so it reports failure with Error, not Fatal, and
// returns a daemon nothing answers on. The child is killed at cleanup.
func startDaemon(t *testing.T, dir string) *daemon {
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-dir", dir,
		"-racks", strconv.Itoa(e2eRacks), "-spare-racks", strconv.Itoa(e2eSpares),
		"-snapshot-every", strconv.Itoa(snapEvery))
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	stderr := &stderrLog{addr: make(chan string, 1)}
	cmd.Stderr = stderr
	d := &daemon{cmd: cmd, url: "http://127.0.0.1:0", exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		t.Error(err)
		close(d.exited)
		return d
	}
	go func() { cmd.Wait(); close(d.exited) }()
	t.Cleanup(func() { d.kill(t) })
	select {
	case addr := <-stderr.addr:
		d.url = "http://" + addr
	case <-d.exited:
		t.Errorf("daemon on %s exited before serving:\n%s", dir, stderr)
	case <-time.After(answerWithin):
		t.Errorf("daemon on %s did not listen within %s:\n%s", dir, answerWithin, stderr)
	}
	return d
}

// kill sends SIGKILL, unless the process is gone already, and waits until
// it is reaped.
func (d *daemon) kill(t *testing.T) {
	select {
	case <-d.exited:
		return
	default:
	}
	if err := d.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		t.Error(err)
	}
	<-d.exited
}

// stderrLog keeps a daemon's stderr, for failure messages, and hands over
// the address of its first "serving on" line.
type stderrLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (l *stderrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if m := servingOn.FindSubmatch(l.buf.Bytes()); m != nil && !l.sent {
		l.sent = true
		l.addr <- string(m[1])
	}
	return len(p), nil
}

func (l *stderrLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// client sends one request at a time over one kept-alive connection, and
// retries through an outage — a refused or dropped connection, 429, 503 —
// with svc.Backoff. base is the daemon's URL; a restarted daemon stores
// its new one.
type client struct {
	http *http.Client
	base atomic.Pointer[string]
	bo   *svc.Backoff
}

func newClient(base string) *client {
	c := &client{
		http: &http.Client{Transport: &http.Transport{}, Timeout: answerWithin},
		bo:   svc.NewBackoff(5*time.Millisecond, 100*time.Millisecond, 1),
	}
	c.base.Store(&base)
	return c
}

// do sends one request until the daemon answers 200, and returns the body.
// A request the daemon holds past answerWithin fails the test: retrying it
// would hide a lost request behind its own retry.
func (c *client) do(t *testing.T, method, path string, body []byte) []byte {
	t.Helper()
	defer c.bo.Reset()
	deadline := time.Now().Add(answerWithin)
	for {
		req, err := http.NewRequest(method, *c.base.Load()+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.http.Do(req)
		if ue := (*url.Error)(nil); errors.As(err, &ue) && ue.Timeout() {
			t.Fatalf("%s %s %s: no answer within %s", method, path, body, answerWithin)
		}
		if err == nil { // else the daemon is down: retry
			var b []byte
			b, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case err != nil: // dropped mid-answer: retry
			case resp.StatusCode == http.StatusOK:
				return b
			case resp.StatusCode == http.StatusTooManyRequests, resp.StatusCode == http.StatusServiceUnavailable:
				err = fmt.Errorf("%d %s", resp.StatusCode, b)
			default:
				t.Fatalf("%s %s %s: %d %s", method, path, body, resp.StatusCode, b)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s %s %s: no answer within %s (last error %v)", method, path, body, answerWithin, err)
		}
		time.Sleep(c.bo.Next())
	}
}

// place sends one VM as POST /place and returns the daemon's answer.
func (c *client) place(t *testing.T, vm workload.VM) []byte {
	t.Helper()
	body, err := json.Marshal(svc.PlaceRequest{ID: vm.ID, Tier: vm.Tier, Arrival: vm.Arrival, Lifetime: vm.Lifetime,
		CPU: int64(vm.Req[units.CPU]), RAM: int64(vm.Req[units.RAM]), Storage: int64(vm.Req[units.Storage])})
	if err != nil {
		t.Fatal(err)
	}
	return c.do(t, http.MethodPost, "/place", body)
}

// placeAll places vms in order and returns the last answer.
func (c *client) placeAll(t *testing.T, vms []workload.VM) (last []byte) {
	t.Helper()
	for _, vm := range vms {
		last = c.place(t, vm)
	}
	return last
}

// resend places vm again, as a client that lost the acknowledgement does:
// the daemon must answer from its history exactly what it answered first.
func (c *client) resend(t *testing.T, vm workload.VM, first []byte) {
	t.Helper()
	if again := c.place(t, vm); !bytes.Equal(again, first) {
		t.Fatalf("VM %d placed again answers %s, first %s", vm.ID, again, first)
	}
}

// get fetches one GET endpoint.
func (c *client) get(t *testing.T, path string) []byte {
	t.Helper()
	return c.do(t, http.MethodGet, path, nil)
}

// replayed reads risasvc_recovery_replayed_records off a /metrics page.
func replayed(t *testing.T, metrics []byte) float64 {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(metrics))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "risasvc_recovery_replayed_records "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("no risasvc_recovery_replayed_records on /metrics")
	return 0
}

// firstDiff returns the number, from 1, of the first line where got and
// want differ, and that line of each; 0 when they are equal.
func firstDiff(got, want []byte) (n int, g, w string) {
	if bytes.Equal(got, want) {
		return 0, "", ""
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		g, w = "(end of log)", "(end of log)"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return i + 1, g, w
		}
	}
}
