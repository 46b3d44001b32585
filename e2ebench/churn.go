package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"facilitymap"
	"facilitymap/internal/delta"
	"facilitymap/internal/obs"
)

const (
	// writeInterval is the write schedule: one single-record batch per
	// interval, an open loop that keeps the writer about 25% busy.
	writeInterval = 200 * time.Millisecond
	// spinBefore is how long before a due time the pacer stops sleeping
	// and spins: time.Sleep overshoots by up to about a millisecond,
	// which would otherwise show up in every freshness sample.
	spinBefore = 2 * time.Millisecond
	// visibleGrace is how long readers keep going after the last write
	// for its epoch to show.
	visibleGrace = 3 * time.Second
)

// surgical reports whether ApplyDelta repairs a batch in place: every
// record is a facility-list edit. Any other kind makes the whole batch
// re-ingest.
func surgical(batch []delta.Delta) bool {
	for _, d := range batch {
		switch d.Kind {
		case delta.ASFacilityAdd, delta.ASFacilityRemove,
			delta.IXPFacilityAdd, delta.IXPFacilityRemove:
		default:
			return false
		}
	}
	return true
}

// churnBatches draws n single-record batches from delta.Churn over the
// boot world, with their JSONL bodies. The same (world, seed) always
// yields the same list.
func churnBatches(sys *facilitymap.System, n int, seed int64) ([][]delta.Delta, [][]byte, error) {
	log, _ := delta.Churn(sys.Env.W, n, seed)
	if len(log) < n {
		return nil, nil, fmt.Errorf("churn: world yields only %d of %d deltas", len(log), n)
	}
	batches := make([][]delta.Delta, n)
	bodies := make([][]byte, n)
	for i := range log {
		batches[i] = log[i : i+1]
		var buf bytes.Buffer
		if err := delta.EncodeJSONL(&buf, batches[i]); err != nil {
			return nil, nil, fmt.Errorf("churn: encoding: %w", err)
		}
		bodies[i] = buf.Bytes()
	}
	return batches, bodies, nil
}

// write is one POSTed batch.
type write struct {
	surgical       bool
	epoch          int // the epoch this batch publishes
	due, sent, ack time.Time
	visible        time.Time // first read response stamped with epoch or later
}

// firstSeen returns, for each epoch in [first, last], the earliest time
// any reader saw that epoch or a later one (zero if none did). A reader
// that skips an epoch — it sees 3 right after 1 — still dates epoch 2's
// visibility, since 3 is built on it.
func firstSeen(readers [][]epochSeen, first, last int) []time.Time {
	out := make([]time.Time, last-first+1)
	for _, seen := range readers {
		for _, s := range seen {
			if s.epoch < first {
				continue
			}
			i := min(s.epoch, last) - first
			if out[i].IsZero() || s.at.Before(out[i]) {
				out[i] = s.at
			}
		}
	}
	for i := len(out) - 2; i >= 0; i-- {
		if !out[i+1].IsZero() && (out[i].IsZero() || out[i+1].Before(out[i])) {
			out[i] = out[i+1]
		}
	}
	return out
}

// sleepUntil sleeps to just before t, then spins to it. The spin keeps
// its P: yielding would park the writer on the global run queue, which
// busy Ps poll only every few dozen scheduling rounds — milliseconds
// late under a read load.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinBefore; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// behind reports whether the writer sent w more than a whole interval
// after its due time: the schedule had fallen behind and a backlog
// built up, so its freshness is not comparable with the rest.
func (w write) behind() bool { return w.sent.Sub(w.due) > writeInterval }

// churnPhase is one stretch of paced writes with one closed-loop
// reader.
type churnPhase struct {
	reads  *readStats
	writes []write
}

// runChurn posts batches[next:] to /v1/deltas on the write schedule for
// d, one reader reading the mix throughout, and returns once the reader
// has seen every published epoch (or visibleGrace has passed).
func runChurn(dm *daemon, rd *reader, writer *http.Client, batches [][]delta.Delta, bodies [][]byte,
	next int, d time.Duration, chk *checker) (*churnPhase, error) {
	ph := &churnPhase{reads: &readStats{}}
	base := dm.sys.Current().Epoch()
	var (
		mu      sync.Mutex
		lastPub = base
		wDone   bool
	)
	// The reader runs until the writer is done and the last published
	// epoch has shown, or the grace after the last ack has passed.
	stop := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if !wDone {
			return false
		}
		if lastPub < 0 || len(ph.writes) == 0 {
			return true
		}
		if n := len(ph.reads.seen); n > 0 && ph.reads.seen[n-1].epoch >= lastPub {
			return true
		}
		return time.Now().After(ph.writes[len(ph.writes)-1].ack.Add(visibleGrace))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd.readUntil(stop, ph.reads)
	}()

	t0 := time.Now()
	var werr error
	for k := 0; next+k < len(batches); k++ {
		due := t0.Add(time.Duration(k) * writeInterval)
		if due.Sub(t0) >= d {
			break
		}
		sleepUntil(due)
		w := write{surgical: surgical(batches[next+k]), epoch: base + k + 1, due: due, sent: time.Now()}
		epoch, err := postBatch(writer, dm.base, bodies[next+k])
		w.ack = time.Now()
		if err != nil {
			werr = fmt.Errorf("batch %d: %w", next+k, err)
			break
		}
		if epoch != w.epoch {
			chk.fail("batch %d: acknowledged epoch %d, want %d", next+k, epoch, w.epoch)
		}
		mu.Lock()
		ph.writes = append(ph.writes, w)
		lastPub = w.epoch
		mu.Unlock()
	}
	mu.Lock()
	wDone = true
	if werr == nil && len(ph.writes) == 0 {
		werr = fmt.Errorf("churn: no batch written in %v", d)
	}
	if werr != nil {
		lastPub = -1 // nothing to wait for: let the reader stop now
	}
	mu.Unlock()
	wg.Wait()
	if werr != nil {
		return nil, werr
	}
	vis := firstSeen([][]epochSeen{ph.reads.seen}, base+1, lastPub)
	for i := range ph.writes {
		ph.writes[i].visible = vis[i]
		if vis[i].IsZero() {
			chk.opError("epoch %d never became visible to the reader", ph.writes[i].epoch)
		}
	}
	return ph, nil
}

// postBatch POSTs one JSONL batch and returns the acknowledged epoch,
// checking that the body and the X-CFS-Epoch header agree.
func postBatch(c *http.Client, base string, body []byte) (int, error) {
	resp, err := c.Post(base+"/v1/deltas", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("reading ack: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	var ack struct{ Epoch, Applied int }
	if err := json.Unmarshal(raw, &ack); err != nil {
		return 0, fmt.Errorf("decoding ack %q: %w", raw, err)
	}
	if h, err := strconv.Atoi(resp.Header.Get("X-Cfs-Epoch")); err != nil || h != ack.Epoch || ack.Applied != 1 {
		return 0, fmt.Errorf("ack %q disagrees with X-CFS-Epoch %q", raw, resp.Header.Get("X-Cfs-Epoch"))
	}
	return ack.Epoch, nil
}

// replayed is one batch applied directly through the facade.
type replayed struct {
	apply, materialize    time.Duration
	redirtied, recomputed int64
}

// replay boots a second System on the same world and feeds it the
// batches directly — System.Apply then Materialize, as the writer loop
// does — returning the final snapshot's digest and per-batch timings.
// With a non-nil envObs the Env is instrumented so redirtied and
// recomputed counts come per batch.
func replay(batches [][]delta.Delta, sp *spanLog, envObs *obs.Obs) (string, []replayed, error) {
	sys, m, _, err := boot(nil, envObs)
	if err != nil {
		return "", nil, err
	}
	out := make([]replayed, len(batches))
	redirty, recomputed := envObs.Counter("cfs.delta.redirtied"), envObs.Counter("cfs.recomputed")
	for i, b := range batches {
		r0, c0 := redirty.Value(), recomputed.Value()
		sp.timed(0, "replay.batch", func(root int64) {
			out[i].apply = sp.timed(root, "facilitymap.System.Apply", func(int64) {
				m, err = sys.Apply(b)
			})
			if err == nil {
				out[i].materialize = sp.timed(root, "facilitymap.Materialize", func(int64) { m.Materialize(0) })
			}
		})
		if err != nil {
			return "", nil, fmt.Errorf("replay batch %d: %w", i, err)
		}
		if m.Epoch() != i+1 {
			return "", nil, fmt.Errorf("replay batch %d published epoch %d", i, m.Epoch())
		}
		out[i].redirtied, out[i].recomputed = redirty.Value()-r0, recomputed.Value()-c0
	}
	return digest(m), out, nil
}
