// Command risasvc is the placement-as-a-service daemon: it owns one
// live simulated datacenter and serves placement requests over
// HTTP/JSON through a bounded, tier-aware admission queue, with live
// cluster mutation endpoints, scheduler hot-swap, graceful drain on
// SIGTERM, and crash recovery from an fsync'd write-ahead journal plus
// periodic snapshots (see internal/svc and DESIGN.md §13).
//
// Usage:
//
//	risasvc -addr :8080 -dir /var/lib/risasvc -algo RISA -racks 18 -spare-racks 2
//
// Endpoints: POST /place /fail /heal /addrack /swap /snapshot,
// GET /stats /metrics /placements /healthz.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"risa/internal/network"
	"risa/internal/svc"
	"risa/internal/topology"

	_ "risa/internal/baseline" // register NULB, NALB
	_ "risa/internal/core"     // register RISA, RISA-BF
)

// The daemon's connection timeouts: constants, not flags. A client still
// short of a whole request header readHeaderTimeout after it began one, a
// client still short of its whole request body readTimeout after it began
// the request, and a kept-alive connection idle for idleTimeout, lose the
// connection; without them each holds a goroutine and a descriptor for
// good, the middle one a handler too. A header or body is a few hundred
// bytes, so the first two bounds refuse only a stalled or hostile client.
// None bounds a request's wait for its answer: net/http clears the read
// deadline as soon as the handler has read the body to its end (it starts
// its background read, which watches for the client hanging up), and
// there is no write timeout.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 2 * readHeaderTimeout
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the daemon's HTTP server over h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
}

// options is the daemon's command line.
type options struct {
	addr, dir, algo        string
	racks, spares, uplinks int
	queueCap, snapEvery    int
	drainTimeout           time.Duration
}

// parseArgs reads the flags and refuses, naming the flag, a value the
// daemon would otherwise replace with a default of its own.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("risasvc", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.dir, "dir", "risasvc-data", "data directory for journal and snapshots")
	fs.StringVar(&o.algo, "algo", "RISA", "genesis scheduler algorithm")
	fs.IntVar(&o.racks, "racks", 18, "in-service racks at genesis")
	fs.IntVar(&o.spares, "spare-racks", 2, "dark spare racks available to /addrack")
	fs.IntVar(&o.uplinks, "uplinks", 16, "box uplinks per box switch")
	fs.IntVar(&o.queueCap, "queue", 256, "admission queue capacity (data lane)")
	fs.IntVar(&o.snapEvery, "snapshot-every", svc.DefaultSnapshotEvery, "journal records between automatic snapshots (the default holds replay at a reopen to ≈6.5 ms)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 5*time.Second, "graceful-drain deadline on shutdown")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.queueCap < 1 {
		return o, fmt.Errorf("-queue must be at least 1, got %d", o.queueCap)
	}
	if o.snapEvery < 1 {
		return o, fmt.Errorf("-snapshot-every must be at least 1, got %d", o.snapEvery)
	}
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // -h/-help: usage already printed, a clean exit
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "risasvc:", err)
		os.Exit(2)
	}

	tcfg := topology.DefaultConfig()
	tcfg.Racks = o.racks
	ncfg := network.DefaultConfig()
	ncfg.BoxUplinks = o.uplinks
	cfg := svc.Config{Topology: tcfg, Network: ncfg, Spares: o.spares, Algo: o.algo}

	eng, err := svc.Open(o.dir, cfg, o.snapEvery)
	if err != nil {
		fmt.Fprintln(os.Stderr, "risasvc:", err)
		os.Exit(1)
	}
	srv := svc.NewServer(eng, o.queueCap)
	srv.Start()

	// Listen before serving, so the line below names the bound address
	// (-addr 127.0.0.1:0 picks a free port) and a client that reads it can
	// connect at once.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "risasvc:", err)
		os.Exit(1)
	}
	httpSrv := newHTTPServer(srv.Handler())
	errC := make(chan error, 1)
	go func() { errC <- httpSrv.Serve(ln) }()

	sigC, release := svc.NotifyShutdown()
	defer release()
	fmt.Fprintf(os.Stderr, "risasvc: serving on %s (algo %s, %d racks + %d spares, data %s)\n",
		ln.Addr(), eng.Algo(), eng.InService(), eng.Spares(), o.dir)

	select {
	case err := <-errC:
		fmt.Fprintln(os.Stderr, "risasvc:", err)
		os.Exit(1)
	case sig := <-sigC:
		fmt.Fprintf(os.Stderr, "risasvc: %v — draining (deadline %s; signal again to force)\n", sig, o.drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	go func() {
		<-sigC // second signal: abandon the drain deadline early
		cancel()
	}()
	httpSrv.Shutdown(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "risasvc: shutdown:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "risasvc: drained, final snapshot written")
}
