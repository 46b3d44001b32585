// Command cfsd is the continuous mapping daemon: it boots a
// facilitymap.System, runs the initial convergence, then serves the
// epoch-cached query API while folding in delta batches as they arrive.
//
// Usage:
//
//	cfsd [-addr :8080] [-profile small|medium|default|paper|large] [-seed N]
//	     [-iterations N] [-follow churn.jsonl] [-poll 1s]
//	     [-cache N] [-timeout 5s] [-inflight N]
//
// Endpoints:
//
//	GET  /v1/interface/{ip}     one interface's inference
//	GET  /v1/interconnections?a=ASN&b=ASN
//	                            every classified link between an AS pair
//	GET  /v1/snapshot           the epoch-stamped mapping digest
//	POST /v1/interfaces:batch   a JSON array of addresses; one result per
//	                            address, all from one snapshot
//	GET  /v1/interfaces/stream  every inference as NDJSON, one record per
//	                            line (epoch in X-CFS-Epoch)
//	GET  /metrics               the obs snapshot (?format=text for the table)
//	POST /v1/deltas             a JSONL delta batch (worldgen -churn format);
//	                            answers {"epoch":N,"applied":K}
//
// Every query is answered from the current immutable snapshot and
// stamped with its epoch (body and X-CFS-Epoch header); responses are
// cached per epoch and the cache dies wholesale at each snapshot swap.
// Each snapshot's serving tables are built before it is published
// (from its predecessor's, re-rendering only what changed), so queries
// are table reads — never snapshot-wide builds.
// Writes — POSTed batches and, with -follow, records tailed from a
// growing churn log — are serialized through one writer goroutine.
//
// On SIGINT/SIGTERM the daemon drains: the listener stops accepting,
// in-flight requests finish within the shutdown grace, queued delta
// batches are applied, and only then does the process exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"facilitymap"
	"facilitymap/internal/obs"
	"facilitymap/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		profile    = flag.String("profile", "small", "world profile: small, medium, default, paper or large")
		seed       = flag.Int64("seed", 42, "simulation seed")
		iterations = flag.Int("iterations", 100, "CFS iteration cap")
		follow     = flag.String("follow", "", "tail this JSONL churn log (see worldgen -churn -out) and apply new records")
		poll       = flag.Duration("poll", time.Second, "poll interval for -follow")
		batch      = flag.Int("batch", 256, "max records per epoch when applying a -follow tail")
		cacheSize  = flag.Int("cache", serve.DefaultCacheEntries, "epoch-cache entry bound (negative disables caching)")
		timeout    = flag.Duration("timeout", serve.DefaultRequestTimeout, "request deadline: reading a request, writing its response, a delta POST's wait for its epoch (503 at the deadline), each chunk of the stream, and how long an idle keep-alive connection stays open; 0 means the default, negative disables them all")
		inflight   = flag.Int("inflight", serve.DefaultMaxInFlight, "max concurrently executing requests (excess get 503)")
		grace      = flag.Duration("grace", 10*time.Second, "shutdown grace for in-flight requests")
	)
	flag.Parse()

	sys, err := facilitymap.NewSystem(facilitymap.Config{
		Profile:       *profile,
		Seed:          *seed,
		MaxIterations: *iterations,
	})
	if err != nil {
		fatal(err)
	}
	// One sink for the server and the pipeline under it: /metrics
	// reports the CFS phases and delta counters (cfs.*) beside the
	// writer's apply times.
	o := obs.New(0)
	sys.Env.Instrument(o)

	fmt.Fprintf(os.Stderr, "cfsd: converging %s world (seed %d)...\n", *profile, *seed)
	//cfslint:ignore noclock boot-timing for the startup log only; feeds a stderr line, never an inference
	start := time.Now()
	m := sys.MapInterconnections()
	fmt.Fprintf(os.Stderr, "cfsd: epoch 0 published in %v: %d interfaces, %d resolved\n",
		//cfslint:ignore noclock boot-timing for the startup log only; feeds a stderr line, never an inference
		time.Since(start).Round(time.Millisecond),
		len(m.Result().Interfaces), m.Result().Resolved())

	srv, hs := newDaemon(*addr, sys, serve.Options{
		RequestTimeout: *timeout,
		MaxInFlight:    *inflight,
		CacheEntries:   *cacheSize,
		Obs:            o,
	})

	// The writer loop owns every Apply; canceling writerCtx begins the
	// drain, and srv.Done() closes once queued batches have landed.
	writerCtx, stopWriter := context.WithCancel(context.Background())
	go srv.Run(writerCtx)

	if *follow != "" {
		fmt.Fprintf(os.Stderr, "cfsd: following %s (poll %v, batch %d)\n", *follow, *poll, *batch)
		go func() {
			if err := srv.Follow(writerCtx, *follow, *poll, *batch); err != nil &&
				!errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "cfsd: follow: %v\n", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "cfsd: serving on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "cfsd: %v — draining\n", s)
	}

	// Drain order matters: stop accepting and finish in-flight requests
	// first (a POST still executing can enqueue), then retire the
	// writer, which applies everything already accepted before exiting.
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "cfsd: shutdown: %v\n", err)
	}
	stopWriter()
	<-srv.Done()
	if cur := sys.Current(); cur != nil {
		fmt.Fprintf(os.Stderr, "cfsd: drained at epoch %d\n", cur.Epoch())
	}
}

// newDaemon builds the query server over sys and the listener that
// serves it on addr. The listener takes the request deadline the
// server resolved, so -timeout 0 means the default on both layers
// rather than no connection deadline at all.
func newDaemon(addr string, sys *facilitymap.System, opt serve.Options) (*serve.Server, *http.Server) {
	srv := serve.New(sys, opt)
	return srv, newHTTPServer(addr, srv.Handler(), srv.RequestTimeout())
}

// newHTTPServer builds the daemon's listener-side server, which bounds
// every client behaviour that could hold a connection and a goroutine
// forever: a request, headers and body, must be read within timeout,
// its response written within timeout of the headers' arrival, and a
// keep-alive connection is closed once it has idled that long after a
// response. The two handlers that may outlast the write deadline move
// it themselves (see serve.Options.RequestTimeout).
func newHTTPServer(addr string, h http.Handler, timeout time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: timeout,
		ReadTimeout:       timeout,
		WriteTimeout:      timeout,
		IdleTimeout:       timeout,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfsd:", err)
	os.Exit(1)
}
