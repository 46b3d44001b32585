package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"facilitymap"
	"facilitymap/internal/delta"
	"facilitymap/internal/obs"
	"facilitymap/internal/world"
)

func smallSystem(t *testing.T) *facilitymap.System {
	t.Helper()
	sys, err := facilitymap.NewSystem(facilitymap.Config{
		Profile: "small", Seed: 1, MaxIterations: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// startServer builds a Server and runs its writer loop for the test's
// lifetime; cleanup cancels and waits for the drain.
func startServer(t *testing.T, sys *facilitymap.System, opt Options) *Server {
	t.Helper()
	if opt.Obs == nil {
		opt.Obs = obs.New(0)
	}
	s := New(sys, opt)
	ctx, cancel := context.WithCancel(context.Background())
	go s.Run(ctx)
	t.Cleanup(func() {
		cancel()
		<-s.Done()
	})
	return s
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func postDeltas(t *testing.T, h http.Handler, log []delta.Delta) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if err := delta.EncodeJSONL(&buf, log); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/deltas", &buf))
	return rec
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return v
}

// mixedChurn draws a full-vocabulary churn log (facility, membership,
// session and cross-connect deltas) against the system's world.
func mixedChurn(t *testing.T, sys *facilitymap.System, n, seed int) []delta.Delta {
	t.Helper()
	log, _ := delta.Churn(sys.Env.W, n, int64(seed))
	if len(log) != n {
		t.Fatalf("churn produced %d deltas, want %d", len(log), n)
	}
	return log
}

// unknownFacility is a facility-list delta naming a facility outside
// sys's registry: System.Apply rejects any batch that holds it.
func unknownFacility(sys *facilitymap.System) delta.Delta {
	return delta.Delta{
		Kind: delta.ASFacilityAdd, AS: sys.Current().Result().Links[0].NearAS,
		Facility: world.FacilityID(len(sys.Env.W.Facilities) + 1000),
	}
}

// sampleQueries extracts representative query targets from a snapshot:
// interface addresses and AS pairs that actually exist.
func sampleQueries(m *facilitymap.Mapping, nIPs, nPairs int) (ips []string, pairs [][2]int) {
	res := m.Result()
	infos := m.Interfaces()
	step := len(infos)/nIPs + 1
	for i := 0; i < len(infos) && len(ips) < nIPs; i += step {
		ips = append(ips, infos[i].IP)
	}
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
			if len(pairs) >= nPairs {
				break
			}
		}
	}
	return ips, pairs
}

// TestEpochCache pins the cache invariants directly: same-epoch hits,
// cross-epoch misses, wholesale reset on advance, stale puts dropped,
// and the entry bound (with the refusal reported so the server can
// count it as a full drop).
func TestEpochCache(t *testing.T) {
	c := newEpochCache(2)
	keys := []cacheKey{{routeInterface, "k0"}, {routeInterface, "k1"}, {routeInterface, "k2"}}
	r1 := cachedResponse{status: 200, body: []byte("one")}
	if full := c.put(0, keys[0], r1); full {
		t.Fatal("first put reported a full drop")
	}
	if got, ok := c.get(0, keys[0]); !ok || string(got.body) != "one" {
		t.Fatal("same-epoch get missed")
	}
	if _, ok := c.get(1, keys[0]); ok {
		t.Fatal("entry visible under a different epoch")
	}

	// Bound: a third distinct key on a full cache is refused, and the
	// refusal is reported. Overwriting an existing key still works.
	c.put(0, keys[1], r1)
	if full := c.put(0, keys[2], r1); !full {
		t.Fatal("put at capacity did not report a full drop")
	}
	if _, ok := c.get(0, keys[2]); ok {
		t.Fatal("bound exceeded")
	}
	if full := c.put(0, keys[0], cachedResponse{status: 200, body: []byte("two")}); full {
		t.Fatal("overwrite of a resident key reported a full drop")
	}
	if got, _ := c.get(0, keys[0]); string(got.body) != "two" {
		t.Fatal("overwrite lost")
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}

	// Advancing resets wholesale.
	c.advance(1)
	if c.len() != 0 {
		t.Fatalf("advance left %d entries", c.len())
	}
	if _, ok := c.get(0, keys[0]); ok {
		t.Fatal("entry outlived its epoch")
	}

	// A late writer from the superseded epoch is dropped silently — a
	// stale put is not a capacity problem, so no full drop either.
	if full := c.put(0, keys[0], r1); full {
		t.Fatal("stale put reported a full drop")
	}
	if _, ok := c.get(0, keys[0]); ok {
		t.Fatal("stale put resurrected an old epoch")
	}
	if c.len() != 0 {
		t.Fatal("stale put stored under the new epoch")
	}
}

// cacheBytes reads the cache's byte account under its lock.
func cacheBytes(c *epochCache) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}

// TestEpochCacheByteBudget: the byte budget caps what one epoch holds
// even when the entry bound would admit far more. Short keys sharing one
// 1 MiB body are charged the body each time; stores that would cross
// the budget are refused and reported, and the next epoch starts from
// an empty account.
func TestEpochCacheByteBudget(t *testing.T) {
	c := newEpochCache(DefaultCacheEntries)
	body := make([]byte, 1<<20)
	var stored, refused, charged int
	for i := 0; i < 200; i++ {
		key := cacheKey{route: routeBatch, arg: fmt.Sprintf("k%03d", i)}
		if c.put(0, key, cachedResponse{status: 200, body: body}) {
			refused++
			continue
		}
		stored++
		charged += len(key.arg) + len(body)
	}
	if refused == 0 {
		t.Fatalf("all %d MiB-sized stores accepted: no byte budget", stored)
	}
	if got := cacheBytes(c); got != charged || got > cacheBudget {
		t.Fatalf("cache accounts %d bytes for %d entries charged %d, budget %d", got, stored, charged, cacheBudget)
	}
	if want := cacheBudget / (len("k000") + len(body)); stored != want || c.len() != want {
		t.Fatalf("stored %d (len %d) entries, want %d", stored, c.len(), want)
	}
	c.advance(1)
	if got := cacheBytes(c); got != 0 {
		t.Fatalf("advance left %d bytes accounted", got)
	}
	if c.put(1, cacheKey{route: routeBatch, arg: "k000"}, cachedResponse{status: 200, body: body}) {
		t.Fatal("first store of a new epoch refused")
	}
}

// TestEpochCacheConcurrent hammers get/put against a racing advance
// under -race. The invariant: a hit at epoch e always returns
// bytes rendered for e — the body encodes its epoch, so any cross-epoch
// leak is caught by content, not just by the race detector.
func TestEpochCacheConcurrent(t *testing.T) {
	c := newEpochCache(128)
	var epoch atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	body := func(e int, k int) []byte {
		return []byte(fmt.Sprintf("e%d-k%d", e, k))
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e := int(epoch.Load())
				key := cacheKey{route: routeInterface, arg: fmt.Sprintf("k%d", (g*7+i)%13)}
				if got, ok := c.get(e, key); ok {
					if want := fmt.Sprintf("e%d-", e); !bytes.HasPrefix(got.body, []byte(want)) {
						t.Errorf("epoch %d hit returned %q", e, got.body)
						return
					}
				}
				if i%2 == 0 {
					c.put(e, key, cachedResponse{status: 200, body: body(e, (g*7+i)%13)})
				}
			}
		}(g)
	}
	for e := 1; e <= 50; e++ {
		epoch.Store(int64(e))
		c.advance(e)
	}
	close(stop)
	wg.Wait()
}

// TestQueryEndpoints drives every read route against a converged
// system and checks each response against the facade directly.
func TestQueryEndpoints(t *testing.T) {
	sys := smallSystem(t)
	m := sys.MapInterconnections()
	o := obs.New(0)
	s := startServer(t, sys, Options{Obs: o})
	h := s.Handler()

	ips, pairs := sampleQueries(m, 4, 4)
	if len(ips) == 0 || len(pairs) == 0 {
		t.Fatal("no query targets in the snapshot")
	}

	// Interface: hit, then repeat (cache hit), then 404 and 400.
	rec := get(h, "/v1/interface/"+ips[0])
	if rec.Code != http.StatusOK {
		t.Fatalf("interface status %d: %s", rec.Code, rec.Body)
	}
	got := decode[interfaceResponse](t, rec)
	want, ok := m.Lookup(ips[0])
	if !ok {
		t.Fatal("sampled IP not in mapping")
	}
	if got.Epoch != m.Epoch() || got.Interface == nil || !reflect.DeepEqual(*got.Interface, want) {
		t.Fatalf("interface response mismatch:\n got %+v\nwant %+v", got, want)
	}
	if rec.Header().Get("X-CFS-Epoch") != "0" {
		t.Fatalf("epoch header %q, want 0", rec.Header().Get("X-CFS-Epoch"))
	}

	misses := s.misses.Value()
	rec = get(h, "/v1/interface/"+ips[0])
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat status %d", rec.Code)
	}
	if s.misses.Value() != misses || s.hits.Value() == 0 {
		t.Fatalf("repeat query did not hit the cache (hits=%d misses=%d)",
			s.hits.Value(), s.misses.Value())
	}

	if rec = get(h, "/v1/interface/203.0.113.254"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown IP status %d, want 404", rec.Code)
	}
	if rec = get(h, "/v1/interface/not-an-ip"); rec.Code != http.StatusBadRequest {
		t.Fatalf("unparsable IP status %d, want 400", rec.Code)
	}

	// Interconnections: order-insensitive and equal to the facade.
	a, b := pairs[0][0], pairs[0][1]
	rec = get(h, fmt.Sprintf("/v1/interconnections?a=%d&b=%d", b, a))
	if rec.Code != http.StatusOK {
		t.Fatalf("interconnections status %d: %s", rec.Code, rec.Body)
	}
	ixn := decode[interconnectionsResponse](t, rec)
	if !reflect.DeepEqual(ixn.Interconnections, m.Interconnections(a, b)) {
		t.Fatal("interconnections mismatch with facade")
	}
	if rec = get(h, "/v1/interconnections?a=zero&b=1"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad ASN status %d, want 400", rec.Code)
	}

	// Snapshot digest.
	rec = get(h, "/v1/snapshot")
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot status %d", rec.Code)
	}
	snap := decode[snapshotResponse](t, rec)
	if snap.SnapshotSummary != m.Summarize() || snap.ASPairs != m.ASPairs() {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}

	// Metrics exposes the counters this test just incremented.
	rec = get(h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	ms := decode[obs.Snapshot](t, rec)
	if ms.Counters["serve.http.requests.interface"] == 0 {
		t.Fatalf("metrics missing request counters: %v", ms.Counters)
	}
	if rec = get(h, "/metrics?format=text"); !bytes.Contains(rec.Body.Bytes(), []byte("serve.cache.hits")) {
		t.Fatal("text metrics missing cache counters")
	}
}

// TestServerBeforeFirstSnapshot: queries against a system that has not
// converged yet answer 503, not a panic or an empty 200 — including the
// bulk shapes.
func TestServerBeforeFirstSnapshot(t *testing.T) {
	s := startServer(t, smallSystem(t), Options{})
	for _, path := range []string{"/v1/snapshot", "/v1/interfaces/stream"} {
		if rec := get(s.Handler(), path); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s: status %d, want 503", path, rec.Code)
		}
	}
	if rec := postBatch(s.Handler(), `["10.0.0.1"]`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch status %d, want 503", rec.Code)
	}
}

func postBatch(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/interfaces:batch",
		bytes.NewBufferString(body)))
	return rec
}

// TestBatchEndpoint drives POST /v1/interfaces:batch: results arrive in
// request order from one snapshot, per-address failures are inline (not
// whole-batch errors), a repeat of the same batch is one cache hit,
// malformed or oversized bodies answer 400, and a body padded to the
// size limit still answers and is charged to the cache by its size.
func TestBatchEndpoint(t *testing.T) {
	sys := smallSystem(t)
	m := sys.MapInterconnections()
	s := startServer(t, sys, Options{})
	h := s.Handler()

	ips, _ := sampleQueries(m, 3, 1)
	if len(ips) < 2 {
		t.Fatal("not enough interface targets")
	}
	req := append([]string{}, ips...)
	req = append(req, "203.0.113.254", "not-an-ip")
	body, _ := json.Marshal(req)

	rec := postBatch(h, string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	got := decode[batchResponse](t, rec)
	if got.Epoch != m.Epoch() || len(got.Results) != len(req) {
		t.Fatalf("batch envelope: epoch %d results %d, want %d and %d",
			got.Epoch, len(got.Results), m.Epoch(), len(req))
	}
	if rec.Header().Get("X-CFS-Epoch") != fmt.Sprint(m.Epoch()) {
		t.Fatalf("epoch header %q", rec.Header().Get("X-CFS-Epoch"))
	}
	for i, ip := range ips {
		r := got.Results[i]
		want, ok := m.Lookup(ip)
		if !ok {
			t.Fatalf("sampled IP %s not in mapping", ip)
		}
		if r.IP != ip || r.Error != "" || r.Interface == nil || !reflect.DeepEqual(*r.Interface, want) {
			t.Fatalf("batch result %d mismatch:\n got %+v\nwant %+v", i, r, want)
		}
	}
	if r := got.Results[len(req)-2]; r.Interface != nil || r.Error == "" {
		t.Fatalf("unknown address result %+v, want inline error", r)
	}
	if r := got.Results[len(req)-1]; r.Interface != nil || r.Error == "" {
		t.Fatalf("unparsable address result %+v, want inline error", r)
	}

	// The whole batch occupies one cache key: a repeat is one hit.
	hits := s.hits.Value()
	if rec = postBatch(h, string(body)); rec.Code != http.StatusOK {
		t.Fatalf("repeat batch status %d", rec.Code)
	}
	if s.hits.Value() != hits+1 {
		t.Fatalf("repeat batch hits %d, want %d", s.hits.Value(), hits+1)
	}
	if got2 := decode[batchResponse](t, rec); !reflect.DeepEqual(got2, got) {
		t.Fatal("cached batch response differs from the rendered one")
	}

	if rec = postBatch(h, `{"not":"an array"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("non-array body status %d, want 400", rec.Code)
	}
	huge, _ := json.Marshal(make([]string, maxBatchIPs+1))
	if rec = postBatch(h, string(huge)); rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d, want 400", rec.Code)
	}

	one := `["` + ips[0] + `"]`
	pad := strings.Repeat(" ", maxBatchBody-len(one))
	before, charged := cacheBytes(s.cache), 0
	for _, padded := range []string{pad + one, one + pad} {
		rec = postBatch(h, padded)
		if rec.Code != http.StatusOK {
			t.Fatalf("padded batch status %d: %s", rec.Code, rec.Body)
		}
		if r := decode[batchResponse](t, rec).Results; len(r) != 1 || !reflect.DeepEqual(r[0], got.Results[0]) {
			t.Fatalf("padded batch results %+v, want [%+v]", r, got.Results[0])
		}
		charged += len(padded) + rec.Body.Len()
	}
	if got := cacheBytes(s.cache) - before; got != charged {
		t.Fatalf("two padded batches charged %d cache bytes, want %d", got, charged)
	}
}

// TestStreamEndpoint checks the NDJSON dump: one line per inference in
// the snapshot's listing order, each line equal to the facade's record,
// epoch stamped in the header.
func TestStreamEndpoint(t *testing.T) {
	sys := smallSystem(t)
	m := sys.MapInterconnections()
	s := startServer(t, sys, Options{})

	rec := get(s.Handler(), "/v1/interfaces/stream")
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if rec.Header().Get("X-CFS-Epoch") != fmt.Sprint(m.Epoch()) {
		t.Fatalf("epoch header %q", rec.Header().Get("X-CFS-Epoch"))
	}

	want := m.Interfaces()
	lines := bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != len(want) {
		t.Fatalf("stream emitted %d lines, want %d", len(lines), len(want))
	}
	for i, line := range lines {
		var info facilitymap.InterfaceInfo
		if err := json.Unmarshal(line, &info); err != nil {
			t.Fatalf("line %d: %v (%q)", i, err, line)
		}
		if !reflect.DeepEqual(info, want[i]) {
			t.Fatalf("line %d mismatch:\n got %+v\nwant %+v", i, info, want[i])
		}
	}
}

// TestStreamOnDispatch: the stream is one more dispatch route, with no
// path of its own around it, so dispatch answers it and refuses any
// method but GET.
func TestStreamOnDispatch(t *testing.T) {
	sys := smallSystem(t)
	sys.MapInterconnections()
	s := startServer(t, sys, Options{})
	for _, tc := range []struct {
		method string
		want   int
	}{{http.MethodGet, http.StatusOK}, {http.MethodPost, http.StatusMethodNotAllowed}} {
		rec := httptest.NewRecorder()
		s.dispatch(rec, httptest.NewRequest(tc.method, "/v1/interfaces/stream", nil))
		if rec.Code != tc.want {
			t.Errorf("%s /v1/interfaces/stream through dispatch: status %d, want %d", tc.method, rec.Code, tc.want)
		}
	}
}

// deadlineWriter is a ResponseWriter with a connection's write
// deadline: it records every SetWriteDeadline call and checks, at each
// Write, that exactly one call since the previous Write (or since the
// writer was made) set a deadline at least timeout after that point.
type deadlineWriter struct {
	hdr     http.Header
	body    bytes.Buffer
	timeout time.Duration

	last       time.Time // when the previous Write returned
	pending    []time.Time
	extensions int
	writes     int
	bad        []string
}

func newDeadlineWriter(timeout time.Duration) *deadlineWriter {
	return &deadlineWriter{hdr: make(http.Header), timeout: timeout, last: time.Now()}
}

func (w *deadlineWriter) Header() http.Header { return w.hdr }
func (w *deadlineWriter) WriteHeader(int)     {}

func (w *deadlineWriter) SetWriteDeadline(d time.Time) error {
	w.pending = append(w.pending, d)
	w.extensions++
	return nil
}

func (w *deadlineWriter) Write(b []byte) (int, error) {
	w.writes++
	switch {
	case w.timeout <= 0:
		if len(w.pending) > 0 {
			w.bad = append(w.bad, fmt.Sprintf("write %d: %d deadlines set with no timeout", w.writes, len(w.pending)))
		}
	case len(w.pending) != 1:
		w.bad = append(w.bad, fmt.Sprintf("write %d: %d deadlines set before it, want 1", w.writes, len(w.pending)))
	case w.pending[0].Sub(w.last) < w.timeout:
		w.bad = append(w.bad, fmt.Sprintf("write %d: deadline %v after the previous write, want at least %v",
			w.writes, w.pending[0].Sub(w.last), w.timeout))
	}
	w.pending = w.pending[:0]
	n, err := w.body.Write(b)
	w.last = time.Now()
	return n, err
}

// TestStreamChunkDeadlines: with a request timeout the stream moves its
// connection's write deadline at least that far ahead before every
// chunk it writes, so a reader that keeps reading gets a dump of any
// size while one that stops fails at the next deadline; with the
// timeout disabled it sets none.
func TestStreamChunkDeadlines(t *testing.T) {
	sys := smallSystem(t)
	m := sys.MapInterconnections()
	for _, timeout := range []time.Duration{DefaultRequestTimeout, -1} {
		s := startServer(t, sys, Options{RequestTimeout: timeout})
		w := newDeadlineWriter(timeout)
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/interfaces/stream", nil))
		if lines := bytes.Count(w.body.Bytes(), []byte("\n")); lines != len(m.Interfaces()) {
			t.Fatalf("timeout %v: stream wrote %d lines, want %d", timeout, lines, len(m.Interfaces()))
		}
		if w.writes < 2 {
			t.Fatalf("timeout %v: stream wrote %d chunks; the test needs several", timeout, w.writes)
		}
		for _, msg := range w.bad {
			t.Errorf("timeout %v: %s", timeout, msg)
		}
		want := w.writes
		if timeout < 0 {
			want = 0
		}
		if w.extensions != want {
			t.Errorf("timeout %v: %d deadlines set for %d chunks, want %d", timeout, w.extensions, w.writes, want)
		}
	}
}

// memWriter is a reusable ResponseWriter for allocation counts: reset
// clears its header map, keeping the map, as net/http does between the
// requests of one connection.
type memWriter struct {
	hdr  http.Header
	code int
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *memWriter) reset()                      { clear(w.hdr); w.code = 0 }

// TestCachedRouteAllocs pins the heap allocations of a cached request
// through the whole handler, exactly. The interface and snapshot routes
// allocate nothing. The AS-pair route allocates its cache key. A batch
// allocates its body reader, the body (one io.ReadAll buffer while the
// body is under 512 bytes) and its cache key: the same three for one
// address or 32, since a repeated batch is a cache hit that never
// re-parses the JSON, which would cost at least one allocation per
// address.
func TestCachedRouteAllocs(t *testing.T) {
	sys := smallSystem(t)
	m := sys.MapInterconnections()
	s := startServer(t, sys, Options{})
	h := s.Handler()
	ips, pairs := sampleQueries(m, 64, 1)
	if len(ips) < 32 || len(pairs) == 0 {
		t.Fatalf("sampled %d addresses and %d AS pairs, want 32 and 1", len(ips), len(pairs))
	}
	batch := func(n int) string {
		b, _ := json.Marshal(ips[:n])
		if len(b) >= 512 {
			t.Fatalf("a batch of %d addresses is %d bytes; it must fit io.ReadAll's first 512-byte buffer", n, len(b))
		}
		return string(b)
	}
	w := &memWriter{hdr: make(http.Header)}
	for _, tc := range []struct {
		name   string
		method string
		target string
		body   string
		allocs float64
	}{
		{"interface", http.MethodGet, "/v1/interface/" + ips[0], "", 0},
		{"snapshot", http.MethodGet, "/v1/snapshot", "", 0},
		{"interconnections", http.MethodGet, fmt.Sprintf("/v1/interconnections?a=%d&b=%d", pairs[0][0], pairs[0][1]), "", 1},
		{"batch of 1", http.MethodPost, "/v1/interfaces:batch", batch(1), 3},
		{"batch of 32", http.MethodPost, "/v1/interfaces:batch", batch(32), 3},
	} {
		body := strings.NewReader(tc.body)
		r := httptest.NewRequest(tc.method, tc.target, body)
		request := func() {
			body.Reset(tc.body)
			w.reset()
			h.ServeHTTP(w, r)
		}
		request() // the miss that fills the cache
		if w.code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, w.code)
		}
		hits := s.hits.Value()
		got := testing.AllocsPerRun(2000, request)
		if w.code != http.StatusOK || s.hits.Value() == hits {
			t.Fatalf("%s: status %d, %d cache hits; the count must be of cached requests", tc.name, w.code, s.hits.Value()-hits)
		}
		if got != tc.allocs {
			t.Errorf("%s: %v allocations per cached request, want %v", tc.name, got, tc.allocs)
		}
	}
}

// TestDeltaIngestion drives POST /v1/deltas: the epoch advances, the
// response names it, the cache is invalidated wholesale, and a
// malformed body is rejected without touching the system.
func TestDeltaIngestion(t *testing.T) {
	sys := smallSystem(t)
	m0 := sys.MapInterconnections()
	s := startServer(t, sys, Options{})
	h := s.Handler()

	// Warm the cache at epoch 0.
	ips, _ := sampleQueries(m0, 2, 1)
	get(h, "/v1/interface/"+ips[0])
	get(h, "/v1/snapshot")
	if s.cache.len() == 0 {
		t.Fatal("cache not warmed")
	}

	rec := postDeltas(t, h, mixedChurn(t, sys, 30, 11))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST status %d: %s", rec.Code, rec.Body)
	}
	dr := decode[deltasResponse](t, rec)
	if dr.Epoch != 1 || dr.Applied != 30 {
		t.Fatalf("deltas response %+v, want epoch 1 applied 30", dr)
	}
	if cur := sys.Current(); cur.Epoch() != 1 {
		t.Fatalf("system epoch %d after POST, want 1", cur.Epoch())
	}

	// The warmed entries died with epoch 0.
	if _, ok := s.cache.get(0, cacheKey{route: routeSnapshot}); ok {
		t.Fatal("epoch-0 cache entry survived the swap")
	}
	snap := decode[snapshotResponse](t, get(h, "/v1/snapshot"))
	if snap.Epoch != 1 {
		t.Fatalf("post-swap snapshot epoch %d, want 1", snap.Epoch)
	}

	// Malformed body: 400, no epoch consumed.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/deltas",
		bytes.NewBufferString(`{"kind":"frobnicate"}`+"\n")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed POST status %d, want 400", rec.Code)
	}
	if cur := sys.Current(); cur.Epoch() != 1 {
		t.Fatalf("malformed POST advanced the epoch to %d", cur.Epoch())
	}

	// An empty body is the heartbeat: a fresh epoch, nothing applied.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/deltas", bytes.NewBuffer(nil)))
	if dr := decode[deltasResponse](t, rec); dr.Epoch != 2 || dr.Applied != 0 {
		t.Fatalf("heartbeat response %+v, want epoch 2 applied 0", dr)
	}
}

// TestConcurrencyLimit fills the in-flight semaphore by hand and checks
// the overload answer is a fast 503.
func TestConcurrencyLimit(t *testing.T) {
	sys := smallSystem(t)
	sys.MapInterconnections()
	s := startServer(t, sys, Options{MaxInFlight: 2})
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}
	rec := get(s.Handler(), "/v1/snapshot")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d at the concurrency limit, want 503", rec.Code)
	}
	if s.rejected.Value() != 1 {
		t.Fatalf("rejected counter %d, want 1", s.rejected.Value())
	}
	<-s.inflight
	<-s.inflight
	if rec = get(s.Handler(), "/v1/snapshot"); rec.Code != http.StatusOK {
		t.Fatalf("status %d after release, want 200", rec.Code)
	}
}

// TestConcurrentEpochConsistency is the daemon's central guarantee,
// run under -race in CI: queries racing a stream of Apply batches
// never observe a torn snapshot — every response is consistent with
// exactly one published epoch — and once the last batch lands, fresh
// queries serve the final epoch with no stale cache.
func TestConcurrentEpochConsistency(t *testing.T) {
	sys := smallSystem(t)
	m0 := sys.MapInterconnections()
	s := startServer(t, sys, Options{})
	h := s.Handler()

	ips, pairs := sampleQueries(m0, 6, 6)
	if len(ips) < 2 || len(pairs) < 2 {
		t.Fatal("not enough query targets")
	}

	// mappings[e] is the immutable snapshot published as epoch e,
	// recorded by the writer side as each batch lands.
	var mu sync.Mutex
	mappings := map[int]*facilitymap.Mapping{0: m0}
	snapshotAt := func(epoch int) *facilitymap.Mapping {
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			m := mappings[epoch]
			mu.Unlock()
			if m != nil || time.Now().After(deadline) {
				return m
			}
			// The response can arrive between the writer publishing the
			// snapshot and the poster registering it; spin briefly.
			time.Sleep(100 * time.Microsecond)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// checkInterface asserts the response equals what its own epoch's
	// snapshot answers — regardless of which epoch that is.
	checkInterface := func(ip string) {
		rec := get(h, "/v1/interface/"+ip)
		if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
			report("interface %s: status %d", ip, rec.Code)
			return
		}
		var got interfaceResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			report("interface %s: %v", ip, err)
			return
		}
		m := snapshotAt(got.Epoch)
		if m == nil {
			report("interface %s: response from unpublished epoch %d", ip, got.Epoch)
			return
		}
		want, ok := m.Lookup(ip)
		switch {
		case rec.Code == http.StatusNotFound:
			if ok {
				report("interface %s: 404 but epoch %d resolves it", ip, got.Epoch)
			}
		case !ok:
			report("interface %s: 200 but epoch %d has no record", ip, got.Epoch)
		case got.Interface == nil || !reflect.DeepEqual(*got.Interface, want):
			report("interface %s: epoch %d torn response:\n got %+v\nwant %+v",
				ip, got.Epoch, got.Interface, want)
		}
	}
	checkPair := func(p [2]int) {
		rec := get(h, fmt.Sprintf("/v1/interconnections?a=%d&b=%d", p[0], p[1]))
		if rec.Code != http.StatusOK {
			report("pair %v: status %d", p, rec.Code)
			return
		}
		var got interconnectionsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			report("pair %v: %v", p, err)
			return
		}
		m := snapshotAt(got.Epoch)
		if m == nil {
			report("pair %v: response from unpublished epoch %d", p, got.Epoch)
			return
		}
		if want := m.Interconnections(p[0], p[1]); !reflect.DeepEqual(got.Interconnections, want) {
			report("pair %v: epoch %d torn response", p, got.Epoch)
		}
	}
	checkSnapshot := func() {
		rec := get(h, "/v1/snapshot")
		if rec.Code != http.StatusOK {
			report("snapshot: status %d", rec.Code)
			return
		}
		var got snapshotResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			report("snapshot: %v", err)
			return
		}
		m := snapshotAt(got.Epoch)
		if m == nil {
			report("snapshot: response from unpublished epoch %d", got.Epoch)
			return
		}
		if want := m.Summarize(); got.SnapshotSummary != want || got.ASPairs != m.ASPairs() {
			// Every field coming from one Census/Summarize call of one
			// snapshot: any mix of two epochs trips this.
			report("snapshot: epoch %d torn digest:\n got %+v\nwant %+v",
				got.Epoch, got.SnapshotSummary, want)
		}
	}
	// checkBatch: every result in a batch must agree with the one
	// snapshot the envelope's epoch names — a torn batch (results from
	// two epochs) is exactly the bug this pins.
	batchBody, _ := json.Marshal(ips[:3])
	checkBatch := func() {
		rec := postBatch(h, string(batchBody))
		if rec.Code != http.StatusOK {
			report("batch: status %d", rec.Code)
			return
		}
		var got batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			report("batch: %v", err)
			return
		}
		m := snapshotAt(got.Epoch)
		if m == nil {
			report("batch: response from unpublished epoch %d", got.Epoch)
			return
		}
		if len(got.Results) != 3 {
			report("batch: %d results, want 3", len(got.Results))
			return
		}
		for i, r := range got.Results {
			want, ok := m.Lookup(ips[i])
			switch {
			case !ok:
				if r.Error == "" {
					report("batch %s: result but epoch %d has no record", ips[i], got.Epoch)
				}
			case r.Interface == nil || !reflect.DeepEqual(*r.Interface, want):
				report("batch %s: epoch %d torn result:\n got %+v\nwant %+v",
					ips[i], got.Epoch, r.Interface, want)
			}
		}
	}
	// checkStream: the dump's header epoch must name a snapshot whose
	// interface listing matches the streamed lines exactly.
	checkStream := func() {
		rec := get(h, "/v1/interfaces/stream")
		if rec.Code != http.StatusOK {
			report("stream: status %d", rec.Code)
			return
		}
		epoch, err := strconv.Atoi(rec.Header().Get("X-CFS-Epoch"))
		if err != nil {
			report("stream: bad epoch header %q", rec.Header().Get("X-CFS-Epoch"))
			return
		}
		m := snapshotAt(epoch)
		if m == nil {
			report("stream: response from unpublished epoch %d", epoch)
			return
		}
		want := m.Interfaces()
		lines := bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
		if len(lines) != len(want) {
			report("stream: epoch %d emitted %d lines, want %d", epoch, len(lines), len(want))
			return
		}
		for i, line := range lines {
			var info facilitymap.InterfaceInfo
			if err := json.Unmarshal(line, &info); err != nil {
				report("stream line %d: %v", i, err)
				return
			}
			if !reflect.DeepEqual(info, want[i]) {
				report("stream line %d: epoch %d torn record:\n got %+v\nwant %+v",
					i, epoch, info, want[i])
				return
			}
		}
	}

	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (g + i) % 5 {
				case 0:
					checkInterface(ips[(g+i)%len(ips)])
				case 1:
					checkPair(pairs[(g+i)%len(pairs)])
				case 2:
					checkSnapshot()
				case 3:
					checkBatch()
				case 4:
					checkStream()
				}
			}
		}(g)
	}

	// The writer side: three mixed batches through the ingestion path,
	// registering each published snapshot before the next POST.
	churn := mixedChurn(t, sys, 120, 9)
	final := 0
	for i, batch := range [][]delta.Delta{churn[:40], churn[40:80], churn[80:]} {
		rec := postDeltas(t, h, batch)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %d: status %d: %s", i, rec.Code, rec.Body)
		}
		dr := decode[deltasResponse](t, rec)
		mu.Lock()
		mappings[dr.Epoch] = sys.Current()
		mu.Unlock()
		final = dr.Epoch
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if final != 3 {
		t.Fatalf("final epoch %d, want 3", final)
	}

	// No stale cache after the last swap: fresh queries of every kind
	// answer the final epoch and match the final snapshot exactly.
	cur := sys.Current()
	if cur.Epoch() != final {
		t.Fatalf("Current epoch %d, want %d", cur.Epoch(), final)
	}
	for _, ip := range ips {
		// Twice: the second answer must come from the final epoch's cache.
		for i := 0; i < 2; i++ {
			got := decode[interfaceResponse](t, get(h, "/v1/interface/"+ip))
			if got.Epoch != final {
				t.Fatalf("post-drain interface query answered epoch %d, want %d", got.Epoch, final)
			}
		}
	}
	snap := decode[snapshotResponse](t, get(h, "/v1/snapshot"))
	if snap.Epoch != final || snap.SnapshotSummary != cur.Summarize() {
		t.Fatalf("post-drain snapshot stale: %+v", snap)
	}
	if s.hits.Value() == 0 || s.misses.Value() == 0 {
		t.Fatalf("cache never exercised (hits=%d misses=%d)", s.hits.Value(), s.misses.Value())
	}
}

// TestFollowTail drives the file-tail ingestion path: batches appended
// to a JSONL log land as epochs, partial lines are held until their
// newline arrives, malformed lines are skipped and counted, a batch
// System.Apply rejects is counted once — by the writer, as for a POST —
// without stopping the tail, and the tail survives the log being
// truncated in place or renamed away and recreated.
func TestFollowTail(t *testing.T) {
	sys := smallSystem(t)
	sys.MapInterconnections()
	s := startServer(t, sys, Options{})

	path := t.TempDir() + "/churn.jsonl"
	ctx, cancel := context.WithCancel(context.Background())
	followDone := make(chan error, 1)
	go func() { followDone <- s.Follow(ctx, path, 5*time.Millisecond, 256) }()

	waitEpoch := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if cur := sys.Current(); cur.Epoch() >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("epoch never reached %d (at %d)", want, sys.Current().Epoch())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	churn := mixedChurn(t, sys, 40, 21)
	var buf bytes.Buffer
	if err := delta.EncodeJSONL(&buf, churn[:20]); err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, buf.Bytes())
	waitEpoch(1)

	// A record split across two writes must not be torn: the first
	// write ends halfway through the first record, so nothing can apply
	// until the rest lands.
	buf.Reset()
	if err := delta.EncodeJSONL(&buf, churn[20:]); err != nil {
		t.Fatal(err)
	}
	line := buf.Bytes()
	cut := bytes.IndexByte(line, '\n') / 2
	appendFile(t, path, line[:cut])
	time.Sleep(20 * time.Millisecond) // a few polls with the partial line pending
	before := sys.Current().Epoch()
	appendFile(t, path, line[cut:])
	waitEpoch(before + 1)

	// Malformed lines are counted and skipped, valid ones still apply.
	bad := s.followBad.Value()
	appendFile(t, path, []byte(`{"kind":"frobnicate"}`+"\n"))
	appendFile(t, path, []byte(`{"kind":"session_down","peer_ip":"10.9.9.9","peer_as":64999}`+"\n"))
	waitEpoch(before + 2)
	if s.followBad.Value() != bad+1 {
		t.Fatalf("bad-line counter %d, want %d", s.followBad.Value(), bad+1)
	}

	buf.Reset()
	if err := delta.EncodeJSONL(&buf, []delta.Delta{unknownFacility(sys)}); err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, buf.Bytes())
	for deadline := time.Now().Add(10 * time.Second); s.applyErrs.Value() == 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("rejected followed batch never counted")
		}
	}
	appendFile(t, path, []byte(`{"kind":"session_down","peer_ip":"10.9.9.8","peer_as":64999}`+"\n"))
	waitEpoch(before + 3)
	if got := s.applyErrs.Value(); got != 1 {
		t.Fatalf("serve.deltas.errors = %d after one rejected followed batch, want 1", got)
	}

	// Truncated in place: the record written after the truncation
	// applies. Each record below is shorter than the file it replaces,
	// so the shrink is visible whichever poll sees it first.
	truncate := func() {
		t.Helper()
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
	}
	truncate()
	appendFile(t, path, []byte(`{"kind":"session_down","peer_ip":"10.9.9.17","peer_as":64999}`+"\n"))
	waitEpoch(before + 4)

	// A partial line pending at the truncation is dropped, not glued
	// onto the new first record.
	appendFile(t, path, line[:cut])
	time.Sleep(20 * time.Millisecond) // a few polls with the partial line pending
	truncate()
	appendFile(t, path, []byte(`{"kind":"session_down","peer_ip":"10.9.9.6","peer_as":64999}`+"\n"))
	waitEpoch(before + 5)
	if s.followBad.Value() != bad+1 {
		t.Fatalf("bad-line counter %d after a truncation with a partial line pending, want %d", s.followBad.Value(), bad+1)
	}

	// Rotated: a record still landing in the renamed file applies, and
	// so does the first record of the new file at path.
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	appendFile(t, path+".1", []byte(`{"kind":"session_down","peer_ip":"10.9.9.5","peer_as":64999}`+"\n"))
	appendFile(t, path, []byte(`{"kind":"session_down","peer_ip":"10.9.9.4","peer_as":64999}`+"\n"))
	waitEpoch(before + 7)

	cancel()
	if err := <-followDone; err != context.Canceled {
		t.Fatalf("Follow returned %v, want context.Canceled", err)
	}
}

// TestFollowDetectsRewriteWithinOnePoll: a log rewritten in place with
// different records that run past the old offset, all between two
// polls, is read again from its start. The tail never sees the file
// shorter than its offset, but the bytes just before the offset have
// changed. Every new record applies, as its own batch, and no line is
// counted bad; resuming at the old offset would land mid-record.
func TestFollowDetectsRewriteWithinOnePoll(t *testing.T) {
	sys := smallSystem(t)
	sys.MapInterconnections()
	s := startServer(t, sys, Options{})

	path := t.TempDir() + "/churn.jsonl"
	ctx, cancel := context.WithCancel(context.Background())
	followDone := make(chan error, 1)
	go func() { followDone <- s.Follow(ctx, path, 50*time.Millisecond, 1) }()
	defer func() {
		cancel()
		if err := <-followDone; err != context.Canceled {
			t.Errorf("Follow returned %v, want context.Canceled", err)
		}
	}()
	waitEpoch := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); sys.Current().Epoch() < want; time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("epoch never reached %d (at %d, %d bad lines)", want, sys.Current().Epoch(), s.followBad.Value())
			}
		}
	}
	record := func(ip string) string {
		return `{"kind":"session_down","peer_ip":"` + ip + `","peer_as":64999}` + "\n"
	}

	appendFile(t, path, []byte(record("10.9.9.1")+record("10.9.9.2")))
	waitEpoch(2)
	rewrite := record("10.9.19.11") + record("10.9.19.12") + record("10.9.19.13")
	if err := os.WriteFile(path, []byte(rewrite), 0o644); err != nil {
		t.Fatal(err)
	}
	waitEpoch(5)
	if got := s.followBad.Value(); got != 0 {
		t.Fatalf("bad-line counter %d after a rewrite, want 0", got)
	}
}

// TestFollowCapsUnterminatedLine: a followed log that grows past
// maxFollowLine without a newline (a wrong path, or a writer that died
// mid-record) costs one bad line, counted as soon as the line passes
// the cap rather than when its newline arrives, and the tail skips the
// rest of it. The record after its newline applies.
func TestFollowCapsUnterminatedLine(t *testing.T) {
	sys := smallSystem(t)
	sys.MapInterconnections()
	s := startServer(t, sys, Options{})

	path := t.TempDir() + "/churn.jsonl"
	ctx, cancel := context.WithCancel(context.Background())
	followDone := make(chan error, 1)
	go func() { followDone <- s.Follow(ctx, path, 5*time.Millisecond, 256) }()
	defer func() {
		cancel()
		if err := <-followDone; err != context.Canceled {
			t.Errorf("Follow returned %v, want context.Canceled", err)
		}
	}()
	waitFor := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: bad lines %d, epoch %d", what, s.followBad.Value(), sys.Current().Epoch())
			}
		}
	}

	appendFile(t, path, bytes.Repeat([]byte("x"), maxFollowLine+1))
	waitFor("an unterminated line past the cap was never counted", func() bool { return s.followBad.Value() == 1 })
	appendFile(t, path, bytes.Repeat([]byte("y"), followChunk+1))
	appendFile(t, path, []byte("\n"+`{"kind":"session_down","peer_ip":"10.9.9.9","peer_as":64999}`+"\n"))
	waitFor("the record after the overlong line never applied", func() bool { return sys.Current().Epoch() == 1 })
	if got := s.followBad.Value(); got != 1 {
		t.Fatalf("bad-line counter %d after one overlong line, want 1", got)
	}
}

// TestNoGoroutineLeakAcrossDaemonCycles is the runtime counterpart of
// the goleak analyzer: three full daemon lifecycles — writer loop,
// follow tailer polling a churn log, queries and a tailed batch — must
// return the process to its baseline goroutine count. A worker missing
// its termination edge compounds once per cycle, which separates a
// real leak from scheduler noise.
func TestNoGoroutineLeakAcrossDaemonCycles(t *testing.T) {
	sys := smallSystem(t)
	sys.MapInterconnections()

	runtime.GC()
	base := runtime.NumGoroutine()

	for cycle := 0; cycle < 3; cycle++ {
		s := New(sys, Options{Obs: obs.New(0)})
		ctx, cancel := context.WithCancel(context.Background())
		go s.Run(ctx)

		path := t.TempDir() + "/churn.jsonl"
		followDone := make(chan error, 1)
		go func() { followDone <- s.Follow(ctx, path, 2*time.Millisecond, 64) }()

		// Exercise the request path between start and drain. It starts
		// no goroutine of its own, so it must leave none behind.
		h := s.Handler()
		if rec := get(h, "/v1/snapshot"); rec.Code != http.StatusOK {
			t.Fatalf("snapshot query: %d %s", rec.Code, rec.Body.String())
		}

		// One batch through the tailer so its poll loop does real work
		// before the drain.
		before := sys.Current().Epoch()
		var buf bytes.Buffer
		if err := delta.EncodeJSONL(&buf, mixedChurn(t, sys, 8, 100+cycle)); err != nil {
			t.Fatal(err)
		}
		appendFile(t, path, buf.Bytes())
		deadline := time.Now().Add(10 * time.Second)
		for sys.Current().Epoch() <= before {
			if time.Now().After(deadline) {
				t.Fatalf("tailed batch never applied (epoch stuck at %d)", before)
			}
			time.Sleep(2 * time.Millisecond)
		}

		cancel()
		<-s.Done()
		if err := <-followDone; err != context.Canceled {
			t.Fatalf("Follow returned %v, want context.Canceled", err)
		}
	}

	// Exited goroutines are reaped asynchronously; poll until the count
	// settles back to (near) baseline instead of asserting immediately.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count %d after three start/drain cycles, baseline %d: a daemon worker leaked", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestDeltasRejectUnknownFacility: a batch naming a facility outside
// the registry is a client error. It answers 400, consumes no epoch,
// leaves the cache as it was — a query warmed before the batch is
// still a hit with the same bytes — and the snapshot readers see keeps
// its X-CFS-Epoch.
func TestDeltasRejectUnknownFacility(t *testing.T) {
	sys := smallSystem(t)
	m0 := sys.MapInterconnections()
	s := startServer(t, sys, Options{})
	h := s.Handler()

	ips, _ := sampleQueries(m0, 1, 0)
	warm := get(h, "/v1/interface/"+ips[0])
	if warm.Code != http.StatusOK {
		t.Fatalf("warming query: status %d: %s", warm.Code, warm.Body)
	}
	entries := s.cache.len()

	log := append(mixedChurn(t, sys, 10, 3), unknownFacility(sys))
	rec := postDeltas(t, h, log)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST with an unknown facility: status %d, want 400: %s", rec.Code, rec.Body)
	}
	if cur := sys.Current(); cur != m0 {
		t.Fatalf("rejected batch published epoch %d", cur.Epoch())
	}
	if got := s.cache.len(); got != entries {
		t.Fatalf("cache holds %d entries after the rejected batch, want %d", got, entries)
	}
	hits := s.hits.Value()
	again := get(h, "/v1/interface/"+ips[0])
	if got := s.hits.Value(); got != hits+1 {
		t.Fatalf("serve.cache.hits moved %d -> %d on the repeated query, want one hit", hits, got)
	}
	if !bytes.Equal(again.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatalf("repeated query body changed:\n  before: %s\n  after:  %s", warm.Body, again.Body)
	}
	if got := again.Header().Get("X-CFS-Epoch"); got != "0" {
		t.Fatalf("repeated query X-CFS-Epoch %q, want 0", got)
	}
	if got := get(h, "/v1/snapshot").Header().Get("X-CFS-Epoch"); got != "0" {
		t.Fatalf("X-CFS-Epoch %q after a rejected batch, want 0", got)
	}
	if got := s.applyErrs.Value(); got != 1 {
		t.Fatalf("serve.deltas.errors = %d, want 1", got)
	}

	// The same batch without the planted record applies as epoch 1.
	rec = postDeltas(t, h, log[:len(log)-1])
	if rec.Code != http.StatusOK {
		t.Fatalf("valid POST status %d: %s", rec.Code, rec.Body)
	}
	if dr := decode[deltasResponse](t, rec); dr.Epoch != 1 {
		t.Fatalf("valid batch published epoch %d, want 1", dr.Epoch)
	}
}

// TestWriterMetrics checks the writer-side metrics. The queue-depth
// gauge counts batches accepted but not yet taken by the writer. With
// an injected clock that advances one step per reading, and batches
// posted one at a time so nothing else reads the clock during an
// Apply, every Apply takes exactly one step and lands in the histogram
// of its batch class, and every batch's freshness lag — acceptance,
// Apply start, publish — takes exactly two.
// TestTimedOutDeltaPostWithdrawn: a delta POST that times out before
// the writer takes its batch answers 503 and withdraws the batch, so a
// client that retries does not apply it twice. With no writer loop the
// first heartbeat times out; once Run starts, the next heartbeat must
// publish epoch 1, and the writer counts the skipped batch.
func TestTimedOutDeltaPostWithdrawn(t *testing.T) {
	sys := smallSystem(t)
	sys.MapInterconnections()
	o := obs.New(0)
	s := New(sys, Options{RequestTimeout: 50 * time.Millisecond, Obs: o})
	h := s.Handler()
	if rec := postDeltas(t, h, nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST with no writer loop answered %d %q, want 503", rec.Code, rec.Body)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go s.Run(ctx)
	defer func() {
		cancel()
		<-s.Done()
	}()
	rec := postDeltas(t, h, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("heartbeat answered %d %q", rec.Code, rec.Body)
	}
	if ack := decode[deltasResponse](t, rec); ack.Epoch != 1 {
		t.Fatalf("heartbeat acked epoch %d, want 1: the timed-out batch was applied", ack.Epoch)
	}
	if got := o.Counter("serve.deltas.withdrawn").Value(); got != 1 {
		t.Fatalf("serve.deltas.withdrawn = %d, want 1", got)
	}
	if got := o.Counter("serve.deltas.applied").Value(); got != 0 {
		t.Fatalf("serve.deltas.applied = %d records after two heartbeats, want 0", got)
	}
}

func TestWriterMetrics(t *testing.T) {
	sys := smallSystem(t)
	sys.MapInterconnections()

	const step = 3 * time.Millisecond
	var mu sync.Mutex
	clock := time.Unix(0, 0)
	o := obs.New(0)
	s := New(sys, Options{Obs: o, Now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		clock = clock.Add(step)
		return clock
	}})
	h := s.Handler()

	var surgical []delta.Delta
	mixed := mixedChurn(t, sys, 30, 11)
	for _, d := range mixed {
		if d.Kind.WorldExpressible() {
			surgical = append(surgical, d)
		}
	}
	if len(surgical) == 0 || delta.Surgical(mixed) {
		t.Fatal("churn lacks a surgical or a re-ingesting batch")
	}
	batches := [][]delta.Delta{surgical, nil, mixed} // heartbeats are surgical

	// Three batches wait while the writer is not running yet.
	depth := o.Gauge("serve.writer.queue_depth")
	codes := make(chan int, len(batches))
	for _, log := range batches {
		log := log
		// Read the depth before the POST starts: read after, it may
		// already count this batch, and the wait would never end.
		want := depth.Value() + 1
		go func() { codes <- postDeltas(t, h, log).Code }()
		for depth.Value() != want {
			runtime.Gosched()
		}
	}
	if got := depth.Value(); got != 3 {
		t.Fatalf("queue depth %d with three batches waiting, want 3", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go s.Run(ctx)
	defer func() {
		cancel()
		<-s.Done()
	}()
	for range batches {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("queued POST status %d", code)
		}
	}
	if got := depth.Value(); got != 0 {
		t.Fatalf("queue depth %d after the writer drained, want 0", got)
	}

	surg, rein := o.Histogram("serve.apply.duration.surgical"), o.Histogram("serve.apply.duration.reingest")
	lag := o.Histogram("serve.writer.lag")
	s0, r0, l0 := surg.Stats(), rein.Stats(), lag.Stats()
	if s0.Count != 2 || r0.Count != 1 {
		t.Fatalf("queued batches observed %d surgical, %d reingest; want 2, 1", s0.Count, r0.Count)
	}
	// A queued batch's lag includes the writer's work on the batches
	// ahead of it, interleaved with other goroutines' readings, so only
	// the count is exact here.
	if l0.Count != 3 {
		t.Fatalf("queued batches observed %d lags, want 3", l0.Count)
	}
	for _, log := range batches {
		if rec := postDeltas(t, h, log); rec.Code != http.StatusOK {
			t.Fatalf("POST status %d: %s", rec.Code, rec.Body)
		}
	}
	if s1 := surg.Stats(); s1.Count-s0.Count != 2 || s1.Sum-s0.Sum != 2*step {
		t.Errorf("surgical applies: %d more observations summing %v, want 2 summing %v",
			s1.Count-s0.Count, s1.Sum-s0.Sum, 2*step)
	}
	if r1 := rein.Stats(); r1.Count-r0.Count != 1 || r1.Sum-r0.Sum != step {
		t.Errorf("reingest applies: %d more observations summing %v, want 1 summing %v",
			r1.Count-r0.Count, r1.Sum-r0.Sum, step)
	}
	if l1 := lag.Stats(); l1.Count-l0.Count != 3 || l1.Sum-l0.Sum != 3*2*step {
		t.Errorf("freshness lag: %d more observations summing %v, want 3 summing %v",
			l1.Count-l0.Count, l1.Sum-l0.Sum, 3*2*step)
	}

	// A rejected batch publishes nothing, so it records no lag.
	l1 := lag.Stats()
	if rec := postDeltas(t, h, []delta.Delta{unknownFacility(sys)}); rec.Code != http.StatusBadRequest {
		t.Fatalf("POST with an unknown facility: status %d, want 400", rec.Code)
	}
	if l2 := lag.Stats(); l2.Count != l1.Count {
		t.Errorf("rejected batch recorded a freshness lag (%d -> %d observations)", l1.Count, l2.Count)
	}

	body := get(h, "/metrics").Body.Bytes()
	for _, name := range []string{"serve.apply.duration.surgical", "serve.apply.duration.reingest", "serve.writer.queue_depth", "serve.writer.lag"} {
		if !bytes.Contains(body, []byte(`"`+name+`"`)) {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}
