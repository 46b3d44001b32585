package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"facilitymap"
)

// The fuzz targets share one small-profile System and Server per
// process: building the System is the expensive part, and the handlers
// under test only read its snapshot. No writer loop runs.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
	fuzzErr  error
)

func fuzzServer(tb testing.TB) *Server {
	tb.Helper()
	fuzzOnce.Do(func() {
		var sys *facilitymap.System
		sys, fuzzErr = facilitymap.NewSystem(facilitymap.Config{
			Profile: "small", Seed: 1, MaxIterations: 30,
		})
		if fuzzErr == nil {
			sys.MapInterconnections()
			fuzzSrv = New(sys, Options{})
		}
	})
	if fuzzErr != nil {
		tb.Fatal(fuzzErr)
	}
	return fuzzSrv
}

// FuzzBatchBody posts arbitrary bytes to /v1/interfaces:batch through
// the full handler. The answer is 200 or 400, and a 200 body is valid
// JSON holding one result per requested address, in request order.
func FuzzBatchBody(f *testing.F) {
	s := fuzzServer(f)
	known := s.sys.Current().Interfaces()[0].IP
	for _, seed := range []string{
		``,
		`null`,
		`[]`,
		`["` + known + `"]`,
		`["` + known + `","10.255.255.254","not-an-ip",""]`,
		`["1.2.3.4.5","01.2.3.4","256.0.0.1","é"]`,
		`[1,2,3]`,
		`{"ips":["` + known + `"]}`,
		`["` + known + `"`,
	} {
		f.Add([]byte(seed))
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/interfaces:batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var want []string
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("200 for a body that is no JSON array of strings (%v): %q", err, body)
		}
		var got batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("200 body is not valid JSON (%v): %s", err, rec.Body)
		}
		if len(got.Results) != len(want) {
			t.Fatalf("%d results for %d addresses: %s", len(got.Results), len(want), rec.Body)
		}
		for i, ip := range want {
			if got.Results[i].IP != ip {
				t.Fatalf("result %d names %q, request had %q", i, got.Results[i].IP, ip)
			}
		}
	})
}

// FuzzDispatch sends an arbitrary method, path and raw query through
// the full handler. The answer is 200, 400, 404 or 405, and every body
// except the metrics dump and the NDJSON stream is valid JSON.
func FuzzDispatch(f *testing.F) {
	s := fuzzServer(f)
	known := s.sys.Current().Interfaces()[0].IP
	for _, seed := range [][3]string{
		{"GET", interfacePrefix + known, ""},
		{"GET", interfacePrefix + "not-an-ip", ""},
		{"GET", interfacePrefix, ""},
		{"GET", "/v1/interconnections", "a=1&b=2"},
		{"GET", "/v1/interconnections", "a=%31&b=+2"},
		{"GET", "/v1/interconnections", "a=x&b=-1;c"},
		{"GET", "/v1/snapshot", "x=1"},
		{"GET", "/metrics", "format=text"},
		{"GET", "/v1/interfaces/stream", ""},
		{"POST", "/v1/interfaces:batch", ""},
		{"DELETE", "/v1/snapshot", ""},
		{"GET", "/v1/deltas", ""},
		{"GET", "/nope", ""},
		{"", "", ""},
		{"POST", "/v1/interfaces/stream", ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, method, path, query string) {
		if method == http.MethodPost && path == "/v1/deltas" {
			// Its body is FuzzDecodeBatch's; with no writer loop the
			// request would wait out the timeout.
			t.Skip("POST /v1/deltas needs a writer loop")
		}
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Method, req.URL.Path, req.URL.RawQuery = method, path, query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed:
		default:
			t.Fatalf("%s %q ?%q: status %d: %s", method, path, query, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK && (path == "/metrics" || path == "/v1/interfaces/stream") {
			return
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %q ?%q: status %d with a body that is not JSON: %s",
				method, path, query, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	})
}
