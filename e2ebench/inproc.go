package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"facilitymap"
	"facilitymap/internal/obs"
	"facilitymap/internal/serve"
)

// inprocPasses is how many passes over the request sequence each
// in-process measurement takes; the median pass is reported.
const inprocPasses = 5

// memWriter is an in-memory ResponseWriter reused across requests, so
// the writer itself allocates nothing once warm.
type memWriter struct {
	h      http.Header
	buf    bytes.Buffer
	status int
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *memWriter) WriteHeader(status int)      { w.status = status }

func (w *memWriter) reset() {
	clear(w.h)
	w.buf.Reset()
	w.status = 0
}

// inprocReq is a prepared request whose body can be replayed.
type inprocReq struct {
	r    *http.Request
	body *bytes.Reader
	raw  []byte
}

// prepare builds the in-process form of seq, without stream reads:
// the stream route bypasses the timeout wrap, and its size scales with
// the snapshot rather than the request.
func prepare(seq []request) []inprocReq {
	var out []inprocReq
	for _, q := range seq {
		switch {
		case q.route == rStream:
			continue
		case q.body != nil:
			br := bytes.NewReader(q.body)
			r := httptest.NewRequest(http.MethodPost, q.path, nil)
			r.Body = io.NopCloser(br)
			out = append(out, inprocReq{r: r, body: br, raw: q.body})
		default:
			out = append(out, inprocReq{r: httptest.NewRequest(http.MethodGet, q.path, nil)})
		}
	}
	return out
}

// pass serves every request once through h and returns the wall time
// and heap allocations per request.
func pass(h http.Handler, reqs []inprocReq, w *memWriter) (nsPerReq, allocsPerReq float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := range reqs {
		q := &reqs[i]
		if q.body != nil {
			q.body.Reset(q.raw)
		}
		w.reset()
		h.ServeHTTP(w, q.r)
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(len(reqs))
	return float64(el.Nanoseconds()) / n, float64(m1.Mallocs-m0.Mallocs) / n
}

// inprocStats is the serve layer measured without a network.
type inprocStats struct {
	nsWrapped, nsBare         float64 // per request, cfsd options vs no timeout wrap
	allocsWrapped, allocsBare float64
}

// measureInproc serves one request sequence in-process through two
// servers on sys, one with cfsd's options and one identical but for
// RequestTimeout -1, alternating them pass by pass; both caches are
// warmed first, as the daemon's would be.
func measureInproc(sys *facilitymap.System, seq []request) inprocStats {
	reqs := prepare(seq)
	wrapped := serve.New(sys, cfsdOptions(obs.New(0))).Handler()
	bareOpts := cfsdOptions(obs.New(0))
	bareOpts.RequestTimeout = -1
	bare := serve.New(sys, bareOpts).Handler()
	w := &memWriter{h: make(http.Header)}
	pass(wrapped, reqs, w)
	pass(bare, reqs, w)
	var nsW, nsB, alW, alB []float64
	for i := 0; i < inprocPasses; i++ {
		ns, al := pass(wrapped, reqs, w)
		nsW, alW = append(nsW, ns), append(alW, al)
		ns, al = pass(bare, reqs, w)
		nsB, alB = append(nsB, ns), append(alB, al)
	}
	return inprocStats{nsWrapped: median(nsW), nsBare: median(nsB),
		allocsWrapped: median(alW), allocsBare: median(alB)}
}

// facadeStats times direct facade calls on the read mix's keys.
type facadeStats struct {
	interfaceJSONNs, interconnectionsNs, summarizeNs float64
}

// measureFacade calls the facade directly on the keys of seq: the
// lookups the serve layer makes on a cache miss.
func measureFacade(m *facilitymap.Mapping, seq []request) facadeStats {
	var ips []string
	var pairs [][2]int
	for _, q := range seq {
		switch q.route {
		case rInterface:
			ips = append(ips, q.ip)
		case rIxn:
			pairs = append(pairs, [2]int{q.a, q.b})
		}
	}
	perCall := func(n int, fn func(i int)) float64 {
		var ns []float64
		for p := 0; p < inprocPasses; p++ {
			start := time.Now()
			for i := 0; i < n; i++ {
				fn(i)
			}
			ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(n))
		}
		return median(ns)
	}
	var sink int
	st := facadeStats{
		interfaceJSONNs: perCall(len(ips), func(i int) {
			b, _ := m.InterfaceJSON(ips[i])
			sink += len(b)
		}),
		interconnectionsNs: perCall(len(pairs), func(i int) {
			sink += len(m.Interconnections(pairs[i][0], pairs[i][1]))
		}),
		summarizeNs: perCall(4096, func(int) { sink += m.Summarize().Interfaces }),
	}
	_ = sink
	return st
}
