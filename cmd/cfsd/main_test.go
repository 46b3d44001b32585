package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// dialServer serves newHTTPServer(timeout) on a loopback listener and
// returns a client connection to it. Both close when the test ends.
func dialServer(t *testing.T, timeout time.Duration) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(ln.Addr().String(), http.NotFoundHandler(), timeout)
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
