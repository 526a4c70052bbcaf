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
// short of a whole request header readHeaderTimeout after it began one, and
// a kept-alive connection idle for idleTimeout, lose the connection;
// without them either holds a goroutine and a descriptor for good. A
// header is a few hundred bytes, so the first bound refuses only a stalled
// or hostile client. Neither bounds a request's wait for its answer.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the daemon's HTTP server over h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		dir          = flag.String("dir", "risasvc-data", "data directory for journal and snapshots")
		algo         = flag.String("algo", "RISA", "genesis scheduler algorithm")
		racks        = flag.Int("racks", 18, "in-service racks at genesis")
		spares       = flag.Int("spare-racks", 2, "dark spare racks available to /addrack")
		uplinks      = flag.Int("uplinks", 16, "box uplinks per box switch")
		queueCap     = flag.Int("queue", 256, "admission queue capacity (data lane)")
		snapEvery    = flag.Int("snapshot-every", svc.DefaultSnapshotEvery, "journal records between automatic snapshots (the default holds replay at a reopen to ≈6.5 ms)")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "graceful-drain deadline on shutdown")
	)
	flag.Parse()

	tcfg := topology.DefaultConfig()
	tcfg.Racks = *racks
	ncfg := network.DefaultConfig()
	ncfg.BoxUplinks = *uplinks
	cfg := svc.Config{Topology: tcfg, Network: ncfg, Spares: *spares, Algo: *algo}

	eng, err := svc.Open(*dir, cfg, *snapEvery)
	if err != nil {
		fmt.Fprintln(os.Stderr, "risasvc:", err)
		os.Exit(1)
	}
	srv := svc.NewServer(eng, *queueCap)
	srv.Start()

	// Listen before serving, so the line below names the bound address
	// (-addr 127.0.0.1:0 picks a free port) and a client that reads it can
	// connect at once.
	ln, err := net.Listen("tcp", *addr)
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
		ln.Addr(), eng.Algo(), eng.InService(), eng.Spares(), *dir)

	select {
	case err := <-errC:
		fmt.Fprintln(os.Stderr, "risasvc:", err)
		os.Exit(1)
	case sig := <-sigC:
		fmt.Fprintf(os.Stderr, "risasvc: %v — draining (deadline %s; signal again to force)\n", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
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
