package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"facilitymap"
)

// The read mix. No production trace of cfsd exists, so these shares
// are assumed; they are reported with every result so a later change
// can revise them by name.
const (
	shareInterface = 0.55  // GET /v1/interface/{ip}
	shareIxn       = 0.25  // GET /v1/interconnections?a=&b=
	shareBatch     = 0.10  // POST /v1/interfaces:batch (monitor polls)
	shareSnapshot  = 0.099 // GET /v1/snapshot
	shareStream    = 0.001 // GET /v1/interfaces/stream

	absentShare = 0.10 // of interface reads: unknown addresses, 404 expected

	// The working set: about 2.6k keys, inside the 4096-entry cache.
	knownKeys   = 1600
	absentKeys  = 200 // at most 254: one documentation /24
	pairKeys    = 800
	batchBodies = 8
	batchSize   = 32

	zipfS  = 1.1     // Zipf exponent over known interfaces and AS pairs
	seqLen = 1 << 16 // requests in the pre-drawn sequence; readers wrap

	checkEvery = 32 // deep-check every n-th response of a reader
)

// mixShares is the read mix as the environment record reports it.
func mixShares() map[string]float64 {
	return map[string]float64{
		"interface": shareInterface, "interconnections": shareIxn, "batch": shareBatch,
		"snapshot": shareSnapshot, "stream": shareStream, "absent_share_of_interface": absentShare,
	}
}

type route uint8

const (
	rInterface route = iota
	rIxn
	rBatch
	rSnapshot
	rStream
	nRoutes
)

var routeNames = [nRoutes]string{"interface", "interconnections", "batch", "snapshot", "stream"}

// request is one drawn read.
type request struct {
	route  route
	path   string // path and query
	body   []byte // batch bodies only
	ip     string // interface reads
	a, b   int    // interconnection reads, a < b
	absent bool   // interface read of an address no snapshot holds
}

// keySet is the read mix's key universe, drawn from the boot snapshot.
type keySet struct {
	known  []string
	absent []string
	pairs  [][2]int
	bodies [][]byte
}

// buildKeys draws the key universe from the epoch-0 snapshot: a seeded
// sample of known interfaces and observed AS pairs, unknown addresses
// from a documentation range, and the fixed pool of batch bodies.
func buildKeys(m *facilitymap.Mapping, seed int64) (keySet, error) {
	r := rand.New(rand.NewPCG(uint64(seed), 0x6b657973))
	var ks keySet
	for _, info := range m.Interfaces() {
		ks.known = append(ks.known, info.IP)
	}
	sort.Strings(ks.known)
	r.Shuffle(len(ks.known), func(i, j int) { ks.known[i], ks.known[j] = ks.known[j], ks.known[i] })
	ks.known = ks.known[:min(knownKeys, len(ks.known))]

	for _, p := range observedPairs(m) {
		if len(m.Interconnections(p[0], p[1])) > 0 {
			ks.pairs = append(ks.pairs, p)
		}
	}
	r.Shuffle(len(ks.pairs), func(i, j int) { ks.pairs[i], ks.pairs[j] = ks.pairs[j], ks.pairs[i] })
	ks.pairs = ks.pairs[:min(pairKeys, len(ks.pairs))]

	// 192.0.2.0/24 is a documentation range the synthetic world never
	// allocates.
	for i := 1; i <= absentKeys; i++ {
		ip := "192.0.2." + strconv.Itoa(i)
		if _, ok := m.InterfaceJSON(ip); ok {
			return ks, fmt.Errorf("keys: documentation address %s is in the snapshot", ip)
		}
		ks.absent = append(ks.absent, ip)
	}
	if len(ks.known) == 0 || len(ks.pairs) == 0 {
		return ks, fmt.Errorf("keys: snapshot has %d interfaces and %d AS pairs", len(ks.known), len(ks.pairs))
	}
	for i := 0; i < batchBodies; i++ {
		ips := make([]string, batchSize)
		for j := range ips {
			if j%16 == 15 {
				ips[j] = ks.absent[r.IntN(len(ks.absent))]
			} else {
				ips[j] = ks.known[r.IntN(len(ks.known))]
			}
		}
		body, err := json.Marshal(ips)
		if err != nil {
			return ks, err
		}
		ks.bodies = append(ks.bodies, body)
	}
	return ks, nil
}

// observedPairs lists the distinct AS pairs the snapshot has classified
// links between, in ascending order, by the rule the facade's pair
// index uses: a public link's far AS owns the replying IXP port.
func observedPairs(m *facilitymap.Mapping) [][2]int {
	res := m.Result()
	seen := make(map[[2]int]bool)
	var out [][2]int
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
		p := [2]int{int(min(l.NearAS, far)), int(max(l.NearAS, far))}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i][0] < out[j][0] || out[i][0] == out[j][0] && out[i][1] < out[j][1]
	})
	return out
}

// buildSequence draws n requests of the read mix from ks. The same
// (ks, seed) always yields the same sequence.
func buildSequence(ks keySet, seed int64, n int) []request {
	r := rand.New(rand.NewPCG(uint64(seed), 0x6d6978))
	zKnown := rand.NewZipf(r, zipfS, 1, uint64(len(ks.known)-1))
	zPairs := rand.NewZipf(r, zipfS, 1, uint64(len(ks.pairs)-1))
	seq := make([]request, n)
	for i := range seq {
		x := r.Float64()
		switch {
		case x < shareInterface:
			q := request{route: rInterface}
			if r.Float64() < absentShare {
				q.ip, q.absent = ks.absent[r.IntN(len(ks.absent))], true
			} else {
				q.ip = ks.known[zKnown.Uint64()]
			}
			q.path = "/v1/interface/" + q.ip
			seq[i] = q
		case x < shareInterface+shareIxn:
			p := ks.pairs[zPairs.Uint64()]
			a, b := p[0], p[1]
			if r.IntN(2) == 0 { // both orders hit one cache entry
				a, b = b, a
			}
			seq[i] = request{route: rIxn, a: p[0], b: p[1],
				path: "/v1/interconnections?a=" + strconv.Itoa(a) + "&b=" + strconv.Itoa(b)}
		case x < shareInterface+shareIxn+shareBatch:
			seq[i] = request{route: rBatch, path: "/v1/interfaces:batch", body: ks.bodies[r.IntN(len(ks.bodies))]}
		case x < 1-shareStream:
			seq[i] = request{route: rSnapshot, path: "/v1/snapshot"}
		default:
			seq[i] = request{route: rStream, path: "/v1/interfaces/stream"}
		}
	}
	return seq
}

// epochSeen is a reader's first sight of a newer epoch.
type epochSeen struct {
	epoch int
	at    time.Time
}

// readStats is what one reader observed over one phase.
type readStats struct {
	start, stop time.Time // when the reader began and ended
	lat         []float64 // µs, send to last body byte
	routes      []route
	ends        []time.Time // completion of each request
	seen        []epochSeen // epoch advances, in order
	ok          int64
	failed      int64
}

func (st *readStats) attempted() int64 { return st.ok + st.failed }

// checker validates responses against the facade's own bytes.
type checker struct {
	sys *facilitymap.System

	mu       sync.Mutex
	failures []string // output-check failures (first few kept)
	nFail    int64
	deep     int64 // sampled responses compared byte for byte
	skipped  int64 // samples whose epoch had already been replaced
	errs     []string
	nErr     int64 // transport errors and unexpected statuses
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nFail++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checker) opError(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nErr++
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// bodyEpoch parses the leading {"epoch":N of a JSON response body.
func bodyEpoch(body []byte) (int, bool) {
	const pre = `{"epoch":`
	if !bytes.HasPrefix(body, []byte(pre)) {
		return 0, false
	}
	rest := body[len(pre):]
	i := 0
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		i++
	}
	n, err := strconv.Atoi(string(rest[:i]))
	return n, err == nil
}

// interconnectionsBody and snapshotBody are the query API's response
// shapes, rebuilt here from the facade to compare against the wire.
type interconnectionsBody struct {
	Epoch            int                           `json:"epoch"`
	A                int                           `json:"a"`
	B                int                           `json:"b"`
	Interconnections []facilitymap.Interconnection `json:"interconnections"`
}

type snapshotBody struct {
	facilitymap.SnapshotSummary
	ASPairs int `json:"as_pairs"`
}

// check validates one response and reports whether it counts as a
// success. Every response must carry an epoch header, and every JSON
// body must name the same epoch; deep is set for sampled responses,
// which are compared byte for byte with what the facade renders for
// that epoch when the snapshot still holds it.
func (c *checker) check(q *request, status int, hdr string, body []byte, deep bool) bool {
	want := http.StatusOK
	if q.absent {
		want = http.StatusNotFound
	}
	// A churned epoch may have dropped a known interface; the deep
	// check confirms it against the snapshot.
	dropped := q.route == rInterface && !q.absent && status == http.StatusNotFound
	if status != want && !dropped {
		c.opError("%s: status %d, want %d", q.path, status, want)
		return false
	}
	deep = deep || dropped
	epoch, err := strconv.Atoi(hdr)
	if err != nil {
		c.fail("%s: bad X-CFS-Epoch %q (status %d)", q.path, hdr, status)
		return false
	}
	if q.route != rStream {
		if be, ok := bodyEpoch(body); !ok || be != epoch {
			c.fail("%s: body epoch %d (ok=%v) != header epoch %d", q.path, be, ok, epoch)
			return false
		}
	}
	if !deep {
		return true
	}
	m := c.sys.Current()
	if m == nil || m.Epoch() != epoch {
		c.mu.Lock()
		c.skipped++
		c.mu.Unlock()
		return true
	}
	var exp []byte
	switch q.route {
	case rBatch:
		return true
	case rInterface:
		rec, ok := m.InterfaceJSON(q.ip)
		if status == http.StatusNotFound {
			if ok {
				c.fail("%s: 404 but epoch %d holds the interface", q.path, epoch)
				return false
			}
			break
		}
		if !ok {
			c.fail("%s: 200 but epoch %d has no such interface", q.path, epoch)
			return false
		}
		exp = append([]byte(`{"epoch":`+strconv.Itoa(epoch)+`,"interface":`), rec...)
		exp = append(exp, '}')
	case rIxn:
		exp, err = json.Marshal(interconnectionsBody{Epoch: epoch, A: q.a, B: q.b,
			Interconnections: m.Interconnections(q.a, q.b)})
	case rSnapshot:
		exp, err = json.Marshal(snapshotBody{SnapshotSummary: m.Summarize(), ASPairs: m.ASPairs()})
	case rStream:
		if n, want := bytes.Count(body, []byte{'\n'}), m.Summarize().Interfaces; n != want {
			c.fail("%s: %d records, epoch %d has %d interfaces", q.path, n, epoch, want)
			return false
		}
	}
	if err != nil {
		c.fail("%s: rendering the expected body: %v", q.path, err)
		return false
	}
	if exp != nil && !bytes.Equal(exp, body) {
		c.fail("%s: body differs from the facade's epoch-%d bytes:\n got %.200s\nwant %.200s", q.path, epoch, body, exp)
		return false
	}
	c.mu.Lock()
	c.deep++
	c.mu.Unlock()
	return true
}

// reader is one closed-loop load connection working through seq.
type reader struct {
	client *http.Client
	base   string
	seq    []request
	next   int
	chk    *checker
	sp     *spanLog
	buf    bytes.Buffer
	n      int64
}

// readUntil issues requests back to back, with no think time, until
// stop reports true; it is checked before every request.
func (rd *reader) readUntil(stop func() bool, st *readStats) {
	st.start = time.Now()
	defer func() { st.stop = time.Now() }()
	maxEpoch := -1
	for !stop() {
		q := &rd.seq[rd.next]
		rd.next = (rd.next + 1) % len(rd.seq)
		rd.n++
		method := http.MethodGet
		var hreq *http.Request
		var err error
		if q.body != nil {
			method = http.MethodPost
			hreq, err = http.NewRequest(method, rd.base+q.path, bytes.NewReader(q.body))
		} else {
			hreq, err = http.NewRequest(method, rd.base+q.path, nil)
		}
		if err != nil {
			panic(err) // paths are built from addresses and integers
		}
		var id int64
		if rd.sp.recording() {
			id = rd.sp.id()
			hreq.Header.Set(reqHeader, strconv.FormatInt(id, 10))
		}
		start := time.Now()
		resp, err := rd.client.Do(hreq)
		if err != nil {
			rd.chk.opError("%s: %v", q.path, err)
			st.failed++
			continue
		}
		rd.buf.Reset()
		_, rerr := rd.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		end := time.Now()
		if rerr != nil {
			rd.chk.opError("%s: reading body: %v", q.path, rerr)
			st.failed++
			continue
		}
		rd.sp.add(id, 0, id, "client."+routeNames[q.route], start, end)
		hdr := resp.Header.Get("X-Cfs-Epoch")
		if !rd.chk.check(q, resp.StatusCode, hdr, rd.buf.Bytes(), rd.n%checkEvery == 0) {
			st.failed++
			continue
		}
		st.ok++
		st.lat = append(st.lat, us(end.Sub(start)))
		st.routes = append(st.routes, q.route)
		st.ends = append(st.ends, end)
		if e, _ := strconv.Atoi(hdr); e > maxEpoch {
			maxEpoch = e
			st.seen = append(st.seen, epochSeen{epoch: e, at: end})
		}
	}
}

// readFor runs every reader concurrently for d and returns their
// stats.
func readFor(readers []*reader, d time.Duration) []*readStats {
	deadline := time.Now().Add(d)
	stop := func() bool { return !time.Now().Before(deadline) }
	out := make([]*readStats, len(readers))
	var wg sync.WaitGroup
	for i, rd := range readers {
		out[i] = &readStats{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd.readUntil(stop, out[i])
		}()
	}
	wg.Wait()
	return out
}

// gaps returns the time between successive response completions of
// one reader, in µs: the resolution at which it can notice a new epoch.
func (st *readStats) gaps() []float64 {
	var out []float64
	for i := 1; i < len(st.ends); i++ {
		out = append(out, us(st.ends[i].Sub(st.ends[i-1])))
	}
	return out
}

// qps is the completed-read rate over read windows, each a set of
// readers that ran concurrently: all completed reads over the windows'
// summed wall time.
func qps(windows [][]*readStats) float64 {
	var n int64
	var el time.Duration
	for _, sts := range windows {
		var start, stop time.Time
		for i, st := range sts {
			n += st.ok
			if i == 0 || st.start.Before(start) {
				start = st.start
			}
			if st.stop.After(stop) {
				stop = st.stop
			}
		}
		el += stop.Sub(start)
	}
	if el <= 0 {
		return 0
	}
	return float64(n) / el.Seconds()
}

// pooled merges the readers of several read windows.
func pooled(windows [][]*readStats) *readStats {
	var all []*readStats
	for _, sts := range windows {
		all = append(all, sts...)
	}
	return merged(all)
}

// merged concatenates several readers' stats.
func merged(sts []*readStats) *readStats {
	out := &readStats{}
	for _, st := range sts {
		out.lat = append(out.lat, st.lat...)
		out.routes = append(out.routes, st.routes...)
		out.ok += st.ok
		out.failed += st.failed
	}
	return out
}
