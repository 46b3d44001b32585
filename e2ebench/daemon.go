package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"facilitymap"
	"facilitymap/internal/obs"
	"facilitymap/internal/serve"
)

// daemon is cfsd run in-process: serve.New(sys, cfsd's options) mounted
// on a real loopback http.Server, with srv.Run as the writer loop.
type daemon struct {
	sys  *facilitymap.System
	srv  *serve.Server
	obs  *obs.Obs // serve's Obs, on as in cfsd
	hs   *http.Server
	base string // http://127.0.0.1:port

	stopWriter context.CancelFunc
	served     chan error
}

// cfsdOptions are cfsd's defaults: 5 s request timeout, 64 in flight, a
// 4096-entry cache, materialization on every CPU, and serve Obs on.
func cfsdOptions(o *obs.Obs) serve.Options {
	return serve.Options{
		RequestTimeout: serve.DefaultRequestTimeout,
		MaxInFlight:    serve.DefaultMaxInFlight,
		CacheEntries:   serve.DefaultCacheEntries,
		Obs:            o,
	}
}

// serveSystem starts serving sys on a loopback port and returns once a
// GET /v1/snapshot has answered 200. With a non-nil sp the handler is
// wrapped to record a span per request, parented by the client span
// named in the reqHeader header.
func serveSystem(sys *facilitymap.System, sp *spanLog) (*daemon, error) {
	d := &daemon{sys: sys, obs: obs.New(0), served: make(chan error, 1)}
	d.srv = serve.New(sys, cfsdOptions(d.obs))
	var h http.Handler = d.srv.Handler()
	if sp != nil {
		h = spanHandler(sp, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: h}
	var ctx context.Context
	ctx, d.stopWriter = context.WithCancel(context.Background())
	go d.srv.Run(ctx)
	go func() { d.served <- d.hs.Serve(ln) }()
	if err := d.ready(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// ready waits until the daemon answers a snapshot query over its own,
// short-lived connection.
func (d *daemon) ready() error {
	tr := &http.Transport{DisableKeepAlives: true}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	resp, err := c.Get(d.base + "/v1/snapshot")
	if err != nil {
		return fmt.Errorf("readiness probe: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readiness probe: status %d", resp.StatusCode)
	}
	return nil
}

// stop drains the daemon in cfsd's order: stop accepting and finish
// in-flight requests, then retire the writer loop after it has applied
// everything queued.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	d.stopWriter()
	<-d.srv.Done()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// counter reads one of serve's exported counters by its /metrics name.
func (d *daemon) counter(name string) int64 { return d.obs.Counter(name).Value() }

// spanHandler records a "serve.Handler" span around every request that
// carries a client span id, as that span's child.
func spanHandler(sp *spanLog, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if req == 0 || !sp.recording() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		sp.add(sp.id(), req, req, "serve.Handler", start, time.Now())
	})
}

// loadClient is one load connection: a client whose transport keeps at
// most one connection to the daemon, counting every dial.
func loadClient(dials *atomic.Int64) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}
