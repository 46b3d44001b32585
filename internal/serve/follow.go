package serve

import (
	"bytes"
	"context"
	"io"
	"os"
	"time"

	"facilitymap/internal/delta"
)

// Follow tails a JSONL delta log — the file worldgen -churn -out
// appends to — and feeds each new batch through the single writer
// loop, so a live churn generator drives the daemon without HTTP in
// between. It polls every poll interval (default 1s), waits for the
// file to appear, and keeps the partial last line buffered until its
// newline arrives, so a write that lands mid-record is never split.
//
// Malformed lines are counted (serve.follow.bad_lines) and skipped
// rather than killing the tail; a batch System.Apply rejects is counted
// once, by the writer (serve.deltas.errors), and the tail continues.
// Follow returns when ctx is done (always with ctx's error) or on an
// unrecoverable file read error.
func (s *Server) Follow(ctx context.Context, path string, poll time.Duration, maxBatch int) error {
	if poll <= 0 {
		poll = time.Second
	}
	if maxBatch <= 0 {
		maxBatch = 256
	}
	t := time.NewTicker(poll)
	defer t.Stop()

	var f *os.File
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	var buf []byte // bytes read but not yet terminated by '\n'
	var pending []delta.Delta

	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		batch := pending
		pending = nil
		if _, err := s.enqueue(ctx, batch); err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		return nil
	}

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		if f == nil {
			var err error
			if f, err = os.Open(path); err != nil {
				continue // not created yet; keep waiting
			}
		}
		chunk, err := io.ReadAll(f) // from the current offset to EOF
		if err != nil {
			return err
		}
		if len(chunk) == 0 {
			continue
		}
		buf = append(buf, chunk...)
		for {
			i := bytes.IndexByte(buf, '\n')
			if i < 0 {
				break
			}
			line := bytes.TrimSpace(buf[:i])
			buf = buf[i+1:]
			if len(line) == 0 {
				continue
			}
			d, err := delta.Unmarshal(line)
			if err != nil {
				s.followBad.Inc()
				continue
			}
			pending = append(pending, d)
			if len(pending) >= maxBatch {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if err := flush(); err != nil {
			return err
		}
	}
}
