package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"facilitymap"
	"facilitymap/internal/obs"
	"facilitymap/internal/serve"
)

// dialServer serves newHTTPServer(timeout) on a loopback listener and
// returns a client connection to it. Both close when the test ends.
func dialServer(t *testing.T, timeout time.Duration) net.Conn {
	t.Helper()
	return dialHandler(t, http.NotFoundHandler(), timeout)
}

// dialHandler is dialServer with h as the server's handler.
func dialHandler(t *testing.T, h http.Handler, timeout time.Duration) net.Conn {
	t.Helper()
	return dialHTTPServer(t, newHTTPServer("", h, timeout))
}

// dialHTTPServer serves hs on a loopback listener and returns a client
// connection to it. Both close when the test ends.
func dialHTTPServer(t *testing.T, hs *http.Server) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	t.Cleanup(func() {
		hs.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// requireClosed reads r, which reads conn, to its end and fails unless
// the server closes the connection within timeout plus a second.
func requireClosed(t *testing.T, conn net.Conn, r io.Reader, timeout time.Duration, after string) {
	t.Helper()
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(timeout + time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err := io.ReadAll(r)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open %v after %s", time.Since(start).Round(time.Millisecond), after)
	}
	if err != nil {
		t.Fatalf("read: %v", err)
	}
}

// TestSlowHeaderClientDisconnected: a client that sends part of a
// request line and then stalls is disconnected once the header
// timeout passes, instead of holding its connection open.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	const timeout = 200 * time.Millisecond
	conn := dialServer(t, timeout)
	if _, err := io.WriteString(conn, "GET /v1/snap"); err != nil {
		t.Fatal(err)
	}
	requireClosed(t, conn, conn, timeout, "a partial request line")
}

// TestIdleKeepAliveClientDisconnected: a client that completes one
// keep-alive request, reads the response and then sends nothing is
// disconnected once the idle timeout passes, instead of holding its
// connection open.
func TestIdleKeepAliveClientDisconnected(t *testing.T) {
	const timeout = 200 * time.Millisecond
	conn := dialServer(t, timeout)
	if _, err := io.WriteString(conn, "GET /v1/snapshot HTTP/1.1\r\nHost: cfsd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("reading the response: %v", err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("reading the response body: %v", err)
	}
	resp.Body.Close()
	if resp.Close {
		t.Fatal("the server closed a keep-alive request's connection at once; the test needs it kept alive")
	}
	requireClosed(t, conn, br, timeout, "its response")
}

// stalledServer is cfsd's serve.Server with the given request timeout
// and no writer loop: a delta batch it accepts is never taken.
func stalledServer(t *testing.T, timeout time.Duration) (*serve.Server, *obs.Obs) {
	t.Helper()
	sys, err := facilitymap.NewSystem(facilitymap.Config{Profile: "small", Seed: 1, MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	return serve.New(sys, serve.Options{RequestTimeout: timeout, Obs: o}), o
}

// TestStalledDeltaPostTimesOut: a POST /v1/deltas whose batch the writer
// never takes answers 503 with a JSON error at its deadline. The
// listener's write deadline passes during that wait, so the handler must
// move it or the client reads EOF instead. The 503 counts as a deltas
// request error but not as a batch System.Apply rejected.
func TestStalledDeltaPostTimesOut(t *testing.T) {
	const timeout = 300 * time.Millisecond
	srv, o := stalledServer(t, timeout)
	conn := dialHandler(t, srv.Handler(), timeout)
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(timeout + time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(conn, "POST /v1/deltas HTTP/1.1\r\nHost: cfsd\r\nContent-Length: 0\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response %v after a stalled delta POST: %v", time.Since(start).Round(time.Millisecond), err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading the response body: %v", err)
	}
	var e struct {
		Error string `json:"error"`
	}
	if resp.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(body, &e) != nil || e.Error == "" {
		t.Fatalf("stalled delta POST answered %d %q, want 503 with a JSON error", resp.StatusCode, body)
	}
	reqErrs := o.Counter("serve.http.errors.deltas")
	for deadline := time.Now().Add(time.Second); reqErrs.Value() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("serve.http.errors.deltas = %d after one timed-out POST, want 1", reqErrs.Value())
		}
	}
	if got := o.Counter("serve.deltas.errors").Value(); got != 0 {
		t.Fatalf("serve.deltas.errors = %d, want 0: System.Apply rejected nothing", got)
	}
}

// TestSlowBodyClientDisconnected: a client that sends complete headers,
// part of the body they announce, and then stalls is disconnected once
// the read timeout passes, instead of holding its connection and a
// handler blocked in the body read.
func TestSlowBodyClientDisconnected(t *testing.T) {
	const timeout = 300 * time.Millisecond
	srv, _ := stalledServer(t, timeout)
	conn := dialHandler(t, srv.Handler(), timeout)
	if _, err := io.WriteString(conn, "POST /v1/interfaces:batch HTTP/1.1\r\nHost: cfsd\r\nContent-Length: 1000\r\n\r\n[\"10."); err != nil {
		t.Fatal(err)
	}
	requireClosed(t, conn, conn, timeout, "a stalled request body")
}

// TestZeroTimeoutMeansDefault: -timeout 0 gives the listener the
// server's default request deadline, not none, so a client that sends
// part of a request line and stalls is disconnected within the default.
func TestZeroTimeoutMeansDefault(t *testing.T) {
	sys, err := facilitymap.NewSystem(facilitymap.Config{Profile: "small", Seed: 1, MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	srv, hs := newDaemon("", sys, serve.Options{RequestTimeout: 0})
	if got := srv.RequestTimeout(); got != serve.DefaultRequestTimeout {
		t.Fatalf("server deadline %v under -timeout 0, want the default %v", got, serve.DefaultRequestTimeout)
	}
	conn := dialHTTPServer(t, hs)
	if _, err := io.WriteString(conn, "GET /v1/snap"); err != nil {
		t.Fatal(err)
	}
	requireClosed(t, conn, conn, serve.DefaultRequestTimeout, "a partial request line under -timeout 0")
}
