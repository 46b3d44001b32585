package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries a client request's span id to the server-side
// wrapper, which records the handler span as its child.
const reqHeader = "X-Bench-Req"

// span is one timed call into a layer, recorded by the benchmark around
// a public function; times are nanoseconds since the log started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A
// nil log records nothing, so untraced code paths pass nil; a log whose
// recording is off (the traced run's untraced half) records nothing
// either but still hands out ids.
type spanLog struct {
	t0  time.Time
	ids atomic.Int64
	on  atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// recording reports whether spans are being kept.
func (l *spanLog) recording() bool { return l != nil && l.on.Load() }

// id allocates a span id (0 from a nil log).
func (l *spanLog) id() int64 {
	if l == nil {
		return 0
	}
	return l.ids.Add(1)
}

// add records a finished span.
func (l *spanLog) add(id, parent, req int64, name string, start, end time.Time) {
	if !l.recording() {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// timed runs fn inside a span named name under parent and returns its
// wall time; fn receives the span's id for its own children.
func (l *spanLog) timed(parent int64, name string, fn func(id int64)) time.Duration {
	id := l.id()
	start := time.Now()
	fn(id)
	end := time.Now()
	l.add(id, parent, 0, name, start, end)
	return end.Sub(start)
}

// snapshot returns a copy of the spans recorded so far.
func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once), keyed by span id.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeSpans writes spans, with their self times, as gzipped NDJSON.
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		s.Self = self[s.ID]
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
