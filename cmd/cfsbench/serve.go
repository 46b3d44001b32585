package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"facilitymap"
	"facilitymap/internal/obs"
	"facilitymap/internal/serve"
)

// measureServe benchmarks the daemon's query path (-serve): one
// converged system, one fixed request mix — snapshot digests,
// interface lookups, AS-pair interconnection queries — played against
// two servers sharing that system. The cold server has its epoch cache
// disabled, so every query renders from the snapshot's materialized
// tables; the hot server is warmed first, so every timed query is a
// cache hit. The ratio is the value of the epoch cache in steady
// state, which -min-serve-speedup turns into a gate.
//
// The hot pass also reports allocations per query (runtime.MemStats
// deltas around the timed loop, gated by -max-hot-allocs), and two
// bulk shapes ride the same system: one POST /v1/interfaces:batch of N
// addresses against the per-request loop of the same N lookups
// (serve_batch_amortization_x, gated by -min-batch-amortization), and
// the GET /v1/interfaces/stream NDJSON dump timed per emitted record.
func measureServe(rep *report, profile string, seed int64, queries, runs int) error {
	sys, err := facilitymap.NewSystem(facilitymap.Config{Profile: profile, Seed: seed})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// The snapshot arrives with its serving tables built, so both modes
	// measure serving — never table construction.
	m := sys.MapInterconnections()
	reqs, ips := buildServeRequests(m, queries)
	if len(reqs) == 0 {
		return fmt.Errorf("serve: no query targets in the snapshot")
	}

	// Read-only traffic: neither server needs its writer loop. The
	// request timeout is disabled so the measurement sees the handler
	// path, not stdlib timer machinery; both modes skip it equally.
	cold := serve.New(sys, serve.Options{RequestTimeout: -1, CacheEntries: -1, Obs: obs.New(0)})
	hot := serve.New(sys, serve.Options{RequestTimeout: -1, Obs: obs.New(0)})

	coldNs, _, err := timeServe(cold.Handler(), reqs, runs)
	if err != nil {
		return fmt.Errorf("serve cold: %w", err)
	}
	hotNs, hotAllocs, err := timeServe(hot.Handler(), reqs, runs)
	if err != nil {
		return fmt.Errorf("serve hot: %w", err)
	}
	rep.ServeQueries = len(reqs)
	rep.ServeColdNsPerQuery = coldNs
	rep.ServeHotNsPerQuery = hotNs
	rep.ServeHotAllocsPerQuery = hotAllocs
	if hotNs > 0 {
		rep.ServeSpeedupX = float64(coldNs) / float64(hotNs)
	}

	// Batch amortization: the same N addresses as one POST body versus
	// N individual hot lookups. Both sides are steady-state (cached).
	loop := make([]*http.Request, len(ips))
	for i, ip := range ips {
		loop[i] = httptest.NewRequest("GET", "/v1/interface/"+ip, nil)
	}
	loopNs, _, err := timeServe(hot.Handler(), loop, runs)
	if err != nil {
		return fmt.Errorf("serve loop: %w", err)
	}
	batchNs, err := timeBatch(hot.Handler(), ips, runs)
	if err != nil {
		return fmt.Errorf("serve batch: %w", err)
	}
	rep.ServeBatchSize = len(ips)
	rep.ServeBatchNsPerQuery = batchNs
	if batchNs > 0 {
		rep.ServeBatchAmortizationX = float64(loopNs) / float64(batchNs)
	}

	streamNs, nIfs, err := timeStream(hot.Handler(), runs)
	if err != nil {
		return fmt.Errorf("serve stream: %w", err)
	}
	rep.ServeStreamInterfaces = nIfs
	rep.ServeStreamNsPerIf = streamNs
	return nil
}

// buildServeRequests assembles the fixed mix: one snapshot digest and
// roughly equal parts interface lookups and AS-pair queries, cycling
// through targets sampled from the mapping. Requests are pre-built and
// reused so the timed loops measure the server, not URL parsing. The
// sampled addresses are returned for the batch scenario.
func buildServeRequests(m *facilitymap.Mapping, n int) ([]*http.Request, []string) {
	infos := m.Interfaces()
	var ips []string
	step := len(infos)/64 + 1
	for i := 0; i < len(infos) && len(ips) < 64; i += step {
		ips = append(ips, infos[i].IP)
	}
	res := m.Result()
	var pairs [][2]int
	seen := map[[2]int]bool{}
	for _, l := range res.Links {
		far := l.FarAS
		if l.Public {
			far = 0
			if ir := res.Interfaces[l.FarPort]; ir != nil {
				far = ir.Owner
			}
		}
		if l.NearAS == 0 || far == 0 || far == l.NearAS {
			continue
		}
		a, b := int(l.NearAS), int(far)
		if a > b {
			a, b = b, a
		}
		p := [2]int{a, b}
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
			if len(pairs) >= 64 {
				break
			}
		}
	}
	if len(ips) == 0 || len(pairs) == 0 {
		return nil, nil
	}
	if n < 4 {
		n = 4
	}
	out := make([]*http.Request, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			out = append(out, httptest.NewRequest("GET", "/v1/snapshot", nil))
		case 1, 3:
			out = append(out, httptest.NewRequest("GET", "/v1/interface/"+ips[i%len(ips)], nil))
		default:
			p := pairs[i%len(pairs)]
			out = append(out, httptest.NewRequest("GET",
				fmt.Sprintf("/v1/interconnections?a=%d&b=%d", p[0], p[1]), nil))
		}
	}
	return out, ips
}

// sink is a reusable alloc-free http.ResponseWriter: the recorder-per-
// request pattern would put several allocations of harness overhead
// inside every timed (and alloc-counted) query.
type sink struct {
	hdr  http.Header
	code int
	n    int64
}

func newSink() *sink                        { return &sink{hdr: make(http.Header, 4)} }
func (s *sink) Header() http.Header         { return s.hdr }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) Write(b []byte) (int, error) { s.n += int64(len(b)); return len(b), nil }

// timeServe plays the request mix through the handler: one untimed
// warmup pass (verifying statuses and filling the hot server's cache so
// both modes measure steady-state serving), then timed passes with the
// heap-allocation delta of the whole loop attributed per query.
func timeServe(h http.Handler, reqs []*http.Request, runs int) (nsPerQuery int64, allocsPerQuery float64, err error) {
	for _, r := range reqs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("%s %s: status %d: %s",
				r.Method, r.URL, rec.Code, rec.Body.String())
		}
	}
	w := newSink()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < runs; i++ {
		for _, r := range reqs {
			h.ServeHTTP(w, r)
		}
	}
	total := time.Since(t0)
	runtime.ReadMemStats(&after)
	n := int64(runs * len(reqs))
	return total.Nanoseconds() / n, float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// batchIters spreads the one-request batch/stream scenarios over enough
// iterations that time.Now granularity stops mattering.
const batchIters = 16

// timeBatch times POST /v1/interfaces:batch with the sampled addresses,
// reporting nanoseconds per address in the batch. The body reader is
// rebuilt per iteration (it is consumed), so the measurement includes
// the decode the server actually pays per batch.
func timeBatch(h http.Handler, ips []string, runs int) (int64, error) {
	body, err := json.Marshal(ips)
	if err != nil {
		return 0, err
	}
	// One reusable request with a rewindable body: rebuilding the
	// request per iteration would charge harness setup, not the server,
	// against the batch.
	rd := bytes.NewReader(body)
	r := httptest.NewRequest("POST", "/v1/interfaces:batch", io.NopCloser(rd))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	w := newSink()
	iters := runs * batchIters
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		rd.Seek(0, io.SeekStart)
		h.ServeHTTP(w, r)
	}
	total := time.Since(t0)
	return total.Nanoseconds() / int64(iters*len(ips)), nil
}

// timeStream times the GET /v1/interfaces/stream NDJSON dump, reporting
// nanoseconds per emitted record and the record count.
func timeStream(h http.Handler, runs int) (nsPerIf int64, interfaces int, err error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/interfaces/stream", nil))
	if rec.Code != http.StatusOK {
		return 0, 0, fmt.Errorf("stream status %d: %s", rec.Code, rec.Body.String())
	}
	interfaces = bytes.Count(rec.Body.Bytes(), []byte("\n"))
	if interfaces == 0 {
		return 0, 0, fmt.Errorf("stream emitted no records")
	}
	w := newSink()
	r := httptest.NewRequest("GET", "/v1/interfaces/stream", nil)
	iters := runs * batchIters
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		h.ServeHTTP(w, r)
	}
	total := time.Since(t0)
	return total.Nanoseconds() / int64(iters*interfaces), interfaces, nil
}
