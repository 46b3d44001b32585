// Package serve is the continuous mapping service behind cmd/cfsd: a
// read-mostly HTTP/JSON query API over a facilitymap.System's current
// snapshot, plus a delta ingestion path that feeds System.Apply from a
// single writer goroutine.
//
// The concurrency story leans entirely on the facade's epoch contract:
// System.Current is an atomic pointer to an immutable Mapping, so every
// query handler loads the pointer once and renders its whole response
// from that one snapshot — a response is consistent with exactly one
// epoch even while Apply is publishing the next. Responses are cached
// under (epoch, request) keys; the cache is invalidated wholesale when
// the epoch advances, so an entry can never outlive its snapshot (see
// epochCache).
//
// The hot path is engineered down to a hash lookup plus a buffer
// write: every snapshot System.Apply publishes already carries its
// serving tables (described records, pre-rendered JSON, the AS-pair
// index), so a cold query is table reads and byte appends — never a
// snapshot-wide build — and a hot query is one map read under the
// cache's RWMutex. Batched (POST /v1/interfaces:batch) and streaming
// (GET /v1/interfaces/stream) shapes amortize per-request overhead for
// bulk consumers.
//
// Writes are serialized through one goroutine (Run): POST /v1/deltas
// and the follow-tailer both enqueue batches and wait, so the System
// only ever sees one Apply at a time and the "applied" response can
// name the exact epoch a batch produced.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"facilitymap"
	"facilitymap/internal/delta"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/obs"
)

// Defaults for Options fields left zero.
const (
	DefaultRequestTimeout = 5 * time.Second
	DefaultMaxInFlight    = 64
	DefaultCacheEntries   = 4096

	// maxDeltaBody bounds a POST /v1/deltas body (8 MiB ≈ 60k records).
	maxDeltaBody = 8 << 20
	// maxBatchBody bounds a POST /v1/interfaces:batch body.
	maxBatchBody = 1 << 20
	// maxBatchIPs bounds the addresses in one batch query.
	maxBatchIPs = 4096
	// applyQueueDepth bounds batches waiting for the writer goroutine.
	applyQueueDepth = 16
)

// Options configures a Server. The zero value is usable: every field
// has a default, and a nil Obs disables metrics at zero cost.
type Options struct {
	// RequestTimeout bounds the two places a request can wait inside
	// the server (default 5s; negative disables both): a POST
	// /v1/deltas waiting for the writer to publish its batch answers 503
	// at this deadline and withdraws the batch (unless the writer has
	// already taken it; then it answers once that batch has landed),
	// and the stream gives each chunk of its dump this
	// long to be written, so a dump of any size completes while its
	// reader keeps reading. Reading a request and writing any other
	// response are bounded on the connection, by the listener's
	// http.Server (cmd/cfsd sets its timeouts from the same flag).
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently executing handlers; excess
	// requests are rejected with 503 rather than queued (default 64).
	MaxInFlight int
	// CacheEntries bounds the epoch cache (default 4096; negative
	// disables caching entirely — every query renders from the
	// snapshot).
	CacheEntries int
	// Obs receives request counts, latency histograms, cache hit/miss
	// counters, the writer's apply-time histograms, queue depth and
	// freshness lag, and the published epoch gauge. Nil disables.
	Obs *obs.Obs
	// Now is the injected clock for latency measurement; nil means
	// wall time. Tests inject a fake so latency math is deterministic.
	Now func() time.Time
}

// routeObs is the per-route metric bundle, resolved once at New.
type routeObs struct {
	count   *obs.Counter
	errors  *obs.Counter
	latency *obs.Histogram
}

// Server serves the query API for one facilitymap.System. Construct
// with New, start the writer loop with Run (required for POST
// /v1/deltas and Follow), and mount Handler on an http.Server.
type Server struct {
	sys   *facilitymap.System
	opt   Options
	cache *epochCache // nil when caching is disabled
	now   func() time.Time

	// Per-route handlers, wrapped once at New with the concurrency
	// bound and metrics. Routing is hand-rolled in dispatch: stdlib
	// ServeMux wildcard matching costs several allocations per request
	// (match-slice appends while backtracking, plus a trailing-slash
	// redirect probe), which alone would blow the hot path's allocation
	// budget.
	hInterface, hIxn, hSnapshot, hMetrics http.Handler
	hDeltas, hBatch, hStream              http.Handler

	// hdr caches the current epoch's pre-built X-CFS-Epoch header
	// value, so stamping a hot response assigns a shared slice instead
	// of allocating one per request.
	hdr atomic.Pointer[epochHdrEntry]

	applyCh  chan applyReq
	done     chan struct{} // closed when Run returns
	inflight chan struct{}

	routes     map[string]routeObs
	hits       *obs.Counter
	misses     *obs.Counter
	fullDrops  *obs.Counter
	rejected   *obs.Counter
	applied    *obs.Counter
	applyErrs  *obs.Counter
	withdrawn  *obs.Counter
	followBad  *obs.Counter
	epochGauge *obs.Gauge

	// Writer-side metrics: System.Apply wall time per batch class (see
	// delta.Surgical), the batches waiting for the writer, and the
	// freshness lag from a batch's acceptance to its published epoch.
	applySurgical *obs.Histogram
	applyReingest *obs.Histogram
	queueDepth    *obs.Gauge
	lag           *obs.Histogram
}

type epochHdrEntry struct {
	epoch int
	hdr   []string
}

// Shared header value slices: assigning them to the header map is
// alloc-free on the hot path (the map buckets already exist after the
// first request on a connection).
var (
	hdrJSON   = []string{"application/json"}
	hdrNDJSON = []string{"application/x-ndjson"}
)

// RequestTimeout returns the request deadline in force: Options'
// RequestTimeout with the default filled in. A listener that bounds
// connections with the same flag should use this value, so a zero
// flag means the default on both layers.
func (s *Server) RequestTimeout() time.Duration { return s.opt.RequestTimeout }

// New wires a Server over sys. The system should already have run
// MapInterconnections; until it does, queries answer 503.
func New(sys *facilitymap.System, opt Options) *Server {
	if opt.RequestTimeout == 0 {
		opt.RequestTimeout = DefaultRequestTimeout
	}
	if opt.MaxInFlight <= 0 {
		opt.MaxInFlight = DefaultMaxInFlight
	}
	if opt.CacheEntries == 0 {
		opt.CacheEntries = DefaultCacheEntries
	}
	now := opt.Now
	if now == nil {
		//cfslint:ignore noclock the latency-clock boundary: wall time feeds request histograms only, never an inference; tests inject a fake
		now = time.Now
	}
	s := &Server{
		sys:      sys,
		opt:      opt,
		now:      now,
		applyCh:  make(chan applyReq, applyQueueDepth),
		done:     make(chan struct{}),
		inflight: make(chan struct{}, opt.MaxInFlight),
	}
	if opt.CacheEntries > 0 {
		s.cache = newEpochCache(opt.CacheEntries)
	}
	o := opt.Obs
	s.routes = make(map[string]routeObs)
	for _, r := range []string{"interface", "interconnections", "snapshot", "metrics", "deltas", "batch", "stream"} {
		s.routes[r] = routeObs{
			count:   o.Counter("serve.http.requests." + r),
			errors:  o.Counter("serve.http.errors." + r),
			latency: o.Histogram("serve.http.latency." + r),
		}
	}
	s.hits = o.Counter("serve.cache.hits")
	s.misses = o.Counter("serve.cache.misses")
	s.fullDrops = o.Counter("serve.cache.full_drops")
	s.rejected = o.Counter("serve.http.rejected")
	s.applied = o.Counter("serve.deltas.applied")
	s.applyErrs = o.Counter("serve.deltas.errors")
	s.withdrawn = o.Counter("serve.deltas.withdrawn")
	s.followBad = o.Counter("serve.follow.bad_lines")
	s.epochGauge = o.Gauge("serve.epoch")
	s.applySurgical = o.Histogram("serve.apply.duration.surgical")
	s.applyReingest = o.Histogram("serve.apply.duration.reingest")
	s.queueDepth = o.Gauge("serve.writer.queue_depth")
	s.lag = o.Histogram("serve.writer.lag")

	s.hInterface = s.route("interface", s.handleInterface)
	s.hIxn = s.route("interconnections", s.handleInterconnections)
	s.hSnapshot = s.route("snapshot", s.handleSnapshot)
	s.hMetrics = s.route("metrics", s.handleMetrics)
	s.hDeltas = s.route("deltas", s.handleDeltas)
	s.hBatch = s.route("batch", s.handleBatch)
	s.hStream = s.route("stream", s.handleStream)
	return s
}

// interfacePrefix is the one path-parameterized route.
const interfacePrefix = "/v1/interface/"

// dispatch is the router: exact-path (plus one prefix) matching with
// zero per-request allocations.
//
//cfslint:hotpath
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case strings.HasPrefix(path, interfacePrefix):
		serveMethod(w, r, http.MethodGet, s.hInterface)
	case path == "/v1/interconnections":
		serveMethod(w, r, http.MethodGet, s.hIxn)
	case path == "/v1/snapshot":
		serveMethod(w, r, http.MethodGet, s.hSnapshot)
	case path == "/metrics":
		serveMethod(w, r, http.MethodGet, s.hMetrics)
	case path == "/v1/deltas":
		serveMethod(w, r, http.MethodPost, s.hDeltas)
	case path == "/v1/interfaces:batch":
		serveMethod(w, r, http.MethodPost, s.hBatch)
	case path == "/v1/interfaces/stream":
		serveMethod(w, r, http.MethodGet, s.hStream)
	default:
		writeError(w, http.StatusNotFound, "no such route")
	}
}

//cfslint:hotpath
func serveMethod(w http.ResponseWriter, r *http.Request, method string, h http.Handler) {
	if r.Method != method {
		writeError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	h.ServeHTTP(w, r)
}

// Handler returns the server's one request path: dispatch, which sends
// every route, the stream included, through the concurrency bound and
// per-route metrics. It sets no deadline beyond the two waits
// Options.RequestTimeout bounds; the listener's http.Server bounds
// reading each request and writing every other response.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.dispatch) }

// Done is closed when the writer loop has exited (after draining).
func (s *Server) Done() <-chan struct{} { return s.done }

// route wraps a handler with the concurrency bound and per-route
// metrics. The bound rejects rather than queues: under overload the
// caller gets a fast 503, not a slow success after the timeout budget.
func (s *Server) route(name string, h http.HandlerFunc) http.Handler {
	ro := s.routes[name]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.rejected.Inc()
			writeError(w, http.StatusServiceUnavailable, "server at concurrency limit")
			return
		}
		start := s.now()
		h(w, r)
		ro.latency.Observe(s.now().Sub(start))
		ro.count.Inc()
	})
}

// epochHeader returns the shared X-CFS-Epoch header value for epoch,
// rebuilding the one-entry cache only when the epoch changes.
//
//cfslint:hotpath
func (s *Server) epochHeader(epoch int) []string {
	if e := s.hdr.Load(); e != nil && e.epoch == epoch {
		return e.hdr
	}
	e := &epochHdrEntry{epoch: epoch, hdr: []string{strconv.Itoa(epoch)}}
	s.hdr.Store(e)
	return e.hdr
}

// writeJSON stamps the response headers from shared slices (keys in
// canonical form, so direct map assignment equals Header().Set without
// the per-call []string allocation) and writes the body.
//
//cfslint:hotpath
func writeJSON(w http.ResponseWriter, status int, epochHdr []string, body []byte) {
	h := w.Header()
	h["Content-Type"] = hdrJSON
	if epochHdr != nil {
		h["X-Cfs-Epoch"] = epochHdr
	}
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	body, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	writeJSON(w, status, nil, body)
}

// cached runs one epoch-cached query: load the current snapshot once,
// serve from cache when the rendered response for (epoch, route, arg)
// exists, otherwise render from that same snapshot and store it. The
// whole response derives from a single immutable Mapping, so it is
// consistent with exactly one epoch even when Apply swaps snapshots
// mid-request.
//
//cfslint:hotpath
func (s *Server) cached(ro routeObs, w http.ResponseWriter, route uint8, arg string,
	render func(m *facilitymap.Mapping) (int, []byte)) {
	m := s.sys.Current()
	if m == nil {
		ro.errors.Inc()
		writeError(w, http.StatusServiceUnavailable, "no snapshot published yet")
		return
	}
	epoch := m.Epoch()
	key := cacheKey{route: route, arg: arg}
	var r cachedResponse
	if s.cache == nil {
		r.status, r.body = render(m)
	} else if hit, ok := s.cache.get(epoch, key); ok {
		s.hits.Inc()
		r = hit
	} else {
		s.misses.Inc()
		r.status, r.body = render(m)
		if s.cache.put(epoch, key, r) {
			s.fullDrops.Inc()
		}
	}
	if r.status != http.StatusOK {
		ro.errors.Inc()
	}
	writeJSON(w, r.status, s.epochHeader(epoch), r.body)
}

// wrapEpochField assembles `{"epoch":N,"<field>":<rec>}` around a
// pre-rendered record without re-marshaling it.
//
//cfslint:hotpath
func wrapEpochField(epoch int, field string, rec []byte) []byte {
	b := make([]byte, 0, len(rec)+len(field)+16)
	b = append(b, `{"epoch":`...)
	b = strconv.AppendInt(b, int64(epoch), 10)
	b = append(b, ',', '"')
	b = append(b, field...)
	b = append(b, '"', ':')
	b = append(b, rec...)
	b = append(b, '}')
	return b
}

// interfaceResponse is the GET /v1/interface/{ip} body. The Interface
// block reuses facilitymap.InterfaceInfo verbatim (the same record the
// JSON dump emits), so dump consumers and API consumers share a shape.
type interfaceResponse struct {
	Epoch     int                        `json:"epoch"`
	Interface *facilitymap.InterfaceInfo `json:"interface,omitempty"`
	Error     string                     `json:"error,omitempty"`
}

func (s *Server) handleInterface(w http.ResponseWriter, r *http.Request) {
	ip := strings.TrimPrefix(r.URL.Path, interfacePrefix)
	s.cached(s.routes["interface"], w, routeInterface, ip, func(m *facilitymap.Mapping) (int, []byte) {
		if _, err := netaddr.ParseIP(ip); err != nil {
			body, _ := json.Marshal(interfaceResponse{
				Epoch: m.Epoch(), Error: fmt.Sprintf("unparsable address %q", ip),
			})
			return http.StatusBadRequest, body
		}
		rec, ok := m.InterfaceJSON(ip)
		if !ok {
			body, _ := json.Marshal(interfaceResponse{
				Epoch: m.Epoch(), Error: "no inference recorded for " + ip,
			})
			return http.StatusNotFound, body
		}
		// The record was marshaled once at materialization; the response
		// just frames it with the epoch.
		return http.StatusOK, wrapEpochField(m.Epoch(), "interface", rec)
	})
}

// interconnectionsResponse is the GET /v1/interconnections body: every
// classified link between the (order-insensitive) AS pair.
type interconnectionsResponse struct {
	Epoch            int                           `json:"epoch"`
	A                int                           `json:"a"`
	B                int                           `json:"b"`
	Interconnections []facilitymap.Interconnection `json:"interconnections"`
}

// parseASPair extracts positive ?a= and ?b= ASNs. The fast path scans
// RawQuery by hand — the hot lookup shape is plain "a=N&b=N", and
// url.Values allocates a map plus strings per call; anything escaped
// falls back to the stdlib parser.
func parseASPair(r *http.Request) (a, b int, ok bool) {
	raw := r.URL.RawQuery
	if strings.ContainsAny(raw, "%+;") {
		q := r.URL.Query()
		a, errA := strconv.Atoi(q.Get("a"))
		b, errB := strconv.Atoi(q.Get("b"))
		return a, b, errA == nil && errB == nil && a > 0 && b > 0
	}
	for len(raw) > 0 {
		seg := raw
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			seg, raw = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		switch {
		case strings.HasPrefix(seg, "a="):
			v, err := strconv.Atoi(seg[2:])
			if err != nil {
				return 0, 0, false
			}
			a = v
		case strings.HasPrefix(seg, "b="):
			v, err := strconv.Atoi(seg[2:])
			if err != nil {
				return 0, 0, false
			}
			b = v
		}
	}
	return a, b, a > 0 && b > 0
}

func (s *Server) handleInterconnections(w http.ResponseWriter, r *http.Request) {
	a, b, ok := parseASPair(r)
	if !ok {
		s.routes["interconnections"].errors.Inc()
		writeError(w, http.StatusBadRequest, "need positive integer ASNs ?a= and ?b=")
		return
	}
	// Normalize so (a,b) and (b,a) share one cache entry.
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	var kb [24]byte
	k := strconv.AppendInt(kb[:0], int64(lo), 10)
	k = append(k, ',')
	k = strconv.AppendInt(k, int64(hi), 10)
	s.cached(s.routes["interconnections"], w, routeInterconnections, string(k), func(m *facilitymap.Mapping) (int, []byte) {
		resp := interconnectionsResponse{
			Epoch:            m.Epoch(),
			A:                lo,
			B:                hi,
			Interconnections: m.Interconnections(lo, hi),
		}
		body, _ := json.Marshal(resp)
		return http.StatusOK, body
	})
}

// snapshotResponse is the GET /v1/snapshot body: the epoch-stamped
// digest plus the AS-pair index size.
type snapshotResponse struct {
	facilitymap.SnapshotSummary
	ASPairs int `json:"as_pairs"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.cached(s.routes["snapshot"], w, routeSnapshot, "", func(m *facilitymap.Mapping) (int, []byte) {
		resp := snapshotResponse{SnapshotSummary: m.Summarize(), ASPairs: m.ASPairs()}
		body, _ := json.Marshal(resp)
		return http.StatusOK, body
	})
}

// batchResponse is the POST /v1/interfaces:batch body: one result per
// requested address, in request order, all rendered from one snapshot.
type batchResponse struct {
	Epoch   int           `json:"epoch"`
	Results []batchResult `json:"results"`
}

type batchResult struct {
	IP        string                     `json:"ip"`
	Interface *facilitymap.InterfaceInfo `json:"interface,omitempty"`
	Error     string                     `json:"error,omitempty"`
}

// handleBatch answers POST /v1/interfaces:batch: a JSON array of
// interface addresses in, an epoch-stamped array of inferences out.
// The whole batch costs one snapshot load and occupies one cache key —
// the raw request body — so a repeated bulk query (the byte-identical
// poll a downstream monitor sends every cycle) is a single hash lookup
// that never re-parses the JSON, regardless of batch size.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	ro := s.routes["batch"]
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBatchBody))
	if err != nil {
		ro.errors.Inc()
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	s.cached(ro, w, routeBatch, string(body), func(m *facilitymap.Mapping) (int, []byte) {
		var ips []string
		if err := json.Unmarshal(body, &ips); err != nil {
			b, _ := json.Marshal(struct {
				Error string `json:"error"`
			}{"body must be a JSON array of interface addresses"})
			return http.StatusBadRequest, b
		}
		if len(ips) > maxBatchIPs {
			b, _ := json.Marshal(struct {
				Error string `json:"error"`
			}{fmt.Sprintf("batch of %d addresses exceeds the %d bound", len(ips), maxBatchIPs)})
			return http.StatusBadRequest, b
		}
		return renderBatch(m, ips)
	})
}

// renderBatch assembles the batch body by framing the pre-rendered
// per-interface records — no per-request marshal of inference data.
//
//cfslint:hotpath
func renderBatch(m *facilitymap.Mapping, ips []string) (int, []byte) {
	b := make([]byte, 0, 32+96*len(ips))
	b = append(b, `{"epoch":`...)
	b = strconv.AppendInt(b, int64(m.Epoch()), 10)
	b = append(b, `,"results":[`...)
	for i, ip := range ips {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"ip":`...)
		if _, err := netaddr.ParseIP(ip); err != nil {
			// Arbitrary input: JSON-escape through Marshal.
			//cfslint:ignore hotalloc malformed-address path only: arbitrary input must be JSON-escaped, and Marshal's any parameter boxes the string
			q, _ := json.Marshal(ip)
			b = append(b, q...)
			b = append(b, `,"error":"unparsable address"}`...)
			continue
		}
		// A parseable dotted quad is plain ASCII — quote it verbatim.
		b = append(b, '"')
		b = append(b, ip...)
		b = append(b, '"')
		if rec, ok := m.InterfaceJSON(ip); ok {
			b = append(b, `,"interface":`...)
			b = append(b, rec...)
			b = append(b, '}')
		} else {
			b = append(b, `,"error":"no inference recorded"}`...)
		}
	}
	b = append(b, `]}`...)
	return http.StatusOK, b
}

// handleStream answers GET /v1/interfaces/stream: every inference in
// the snapshot's listing order as NDJSON, one pre-rendered record per
// line, written through a 64 KiB buffer. The whole dump derives from
// one snapshot load and carries its epoch in X-CFS-Epoch.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	ro := s.routes["stream"]
	m := s.sys.Current()
	if m == nil {
		ro.errors.Inc()
		writeError(w, http.StatusServiceUnavailable, "no snapshot published yet")
		return
	}
	h := w.Header()
	h["Content-Type"] = hdrNDJSON
	h["X-Cfs-Epoch"] = s.epochHeader(m.Epoch())
	w.WriteHeader(http.StatusOK)

	buf := make([]byte, 0, 64<<10)
	var err error
	m.EachInterfaceJSON(func(rec []byte) bool {
		if len(buf) > 0 && len(buf)+len(rec)+1 > cap(buf) {
			if err = s.writeChunk(w, buf); err != nil {
				return false
			}
			buf = buf[:0]
		}
		buf = append(buf, rec...)
		buf = append(buf, '\n')
		return true
	})
	if err == nil && len(buf) > 0 {
		err = s.writeChunk(w, buf)
	}
	if err != nil {
		ro.errors.Inc()
	}
}

// writeChunk writes one chunk of the stream after giving the connection
// RequestTimeout to take it. A dump's size scales with the snapshot, so
// no single deadline fits it; per chunk, a reader that stops reading
// fails the stream at the next deadline instead of holding its handler.
func (s *Server) writeChunk(w http.ResponseWriter, b []byte) error {
	if t := s.opt.RequestTimeout; t > 0 {
		//cfslint:ignore noclock a connection deadline is wall time by definition; it bounds a write, never an inference
		if err := setWriteDeadline(w, time.Now().Add(t)); err != nil {
			return err
		}
	}
	_, err := w.Write(b)
	return err
}

// setWriteDeadline moves the write deadline of w's connection to d. A
// writer without a connection (httptest's recorder, an in-process
// harness) has no deadline to move, so http.ErrNotSupported is no
// error. net/http clears the deadline once the request is finished, so
// it never carries over to the next request on a keep-alive connection.
func setWriteDeadline(w http.ResponseWriter, d time.Time) error {
	err := http.NewResponseController(w).SetWriteDeadline(d)
	if errors.Is(err, http.ErrNotSupported) {
		return nil
	}
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var reg *obs.Registry
	if s.opt.Obs != nil {
		reg = s.opt.Obs.Metrics
	}
	snap := reg.Snapshot()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, snap.Render())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	snap.WriteJSON(w)
}

// deltasResponse is the POST /v1/deltas body: how many records were
// folded in and which epoch the resulting snapshot carries.
type deltasResponse struct {
	Epoch   int `json:"epoch"`
	Applied int `json:"applied"`
}

func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	ro := s.routes["deltas"]
	log, err := delta.NewDecoder(http.MaxBytesReader(w, r.Body, maxDeltaBody)).Batch(0)
	if err != nil {
		ro.errors.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx := r.Context()
	if t := s.opt.RequestTimeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
		// The listener set this response's write deadline when it read the
		// headers, so a wait this long ends past it. Move the deadline one
		// RequestTimeout beyond the wait, or the 503 a timed-out wait
		// answers could not be written. A connection that refuses the
		// deadline fails that write too, so its error adds nothing.
		dl, _ := ctx.Deadline()
		_ = setWriteDeadline(w, dl.Add(t))
	}
	// An empty batch is a heartbeat: it still publishes a fresh epoch
	// (the facade pins this), which the smoke test leans on.
	m, err := s.enqueue(ctx, log)
	if err != nil {
		ro.errors.Inc()
		status, msg := http.StatusUnprocessableEntity, err.Error()
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			status, msg = http.StatusServiceUnavailable, "request timed out"
		case errors.Is(err, delta.ErrUnknownFacility):
			status = http.StatusBadRequest
		}
		writeError(w, status, msg)
		return
	}
	body, _ := json.Marshal(deltasResponse{Epoch: m.Epoch(), Applied: len(log)})
	writeJSON(w, http.StatusOK, s.epochHeader(m.Epoch()), body)
}

// applyReq is one batch waiting for the writer goroutine. accepted is
// the injected clock's reading when enqueue took the batch, the start
// of its freshness lag. state settles who owns a queued batch: the
// writer moves it from reqQueued to reqTaken before applying it, and a
// handler whose wait ends first moves it to reqWithdrawn, so a batch
// answered with a 503 is never applied.
type applyReq struct {
	log      []delta.Delta
	accepted time.Time
	state    *atomic.Int32
	resp     chan applyResult
}

// applyReq states.
const (
	reqQueued int32 = iota
	reqTaken
	reqWithdrawn
)

type applyResult struct {
	m   *facilitymap.Mapping
	err error
}

// enqueue hands a batch to the writer loop and waits for the published
// snapshot. It fails fast when the writer has exited. When the request
// context ends first, it withdraws the batch and returns the context's
// error, unless the writer has already taken the batch: then it waits
// for that apply, so the caller reports what happened to its batch.
func (s *Server) enqueue(ctx context.Context, log []delta.Delta) (*facilitymap.Mapping, error) {
	req := applyReq{log: log, accepted: s.now(), state: new(atomic.Int32), resp: make(chan applyResult, 1)}
	// The depth counts a batch from here until the writer takes it, so
	// a sender blocked on a full queue counts as waiting too.
	s.queueDepth.Add(1)
	select {
	case s.applyCh <- req:
	case <-s.done:
		s.queueDepth.Add(-1)
		return nil, fmt.Errorf("serve: writer loop stopped")
	case <-ctx.Done():
		s.queueDepth.Add(-1)
		return nil, ctx.Err()
	}
	select {
	case res := <-req.resp:
		return res.m, res.err
	case <-ctx.Done():
		if req.state.CompareAndSwap(reqQueued, reqWithdrawn) {
			return nil, ctx.Err()
		}
		res := <-req.resp
		return res.m, res.err
	}
}

// Run is the single writer loop: every System.Apply in the daemon goes
// through here, one batch at a time. It blocks until ctx is canceled,
// then drains batches already queued (graceful SIGTERM semantics — an
// accepted POST is never dropped) and closes Done.
func (s *Server) Run(ctx context.Context) {
	defer close(s.done)
	for {
		select {
		case req := <-s.applyCh:
			s.apply(req)
		case <-ctx.Done():
			for {
				select {
				case req := <-s.applyCh:
					s.apply(req)
				default:
					return
				}
			}
		}
	}
}

func (s *Server) apply(req applyReq) {
	s.queueDepth.Add(-1)
	if !req.state.CompareAndSwap(reqQueued, reqTaken) {
		s.withdrawn.Inc() // its handler answered 503 already
		return
	}
	start := s.now()
	m, err := s.sys.Apply(req.log)
	// Apply returns after the atomic publish, so this one reading ends
	// both the apply time and the batch's freshness lag.
	published := s.now()
	if err != nil {
		s.applyErrs.Inc()
	} else {
		if delta.Surgical(req.log) {
			s.applySurgical.Observe(published.Sub(start))
		} else {
			s.applyReingest.Observe(published.Sub(start))
		}
		s.lag.Observe(published.Sub(req.accepted))
		s.applied.Add(int64(len(req.log)))
		s.epochGauge.Set(int64(m.Epoch()))
		if s.cache != nil {
			// Invalidate at the swap, not lazily at the next store:
			// stale entries vanish the moment the new epoch is live.
			s.cache.advance(m.Epoch())
		}
	}
	req.resp <- applyResult{m: m, err: err}
}
