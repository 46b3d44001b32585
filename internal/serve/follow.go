package serve

import (
	"bytes"
	"context"
	"io"
	"os"
	"time"

	"facilitymap/internal/delta"
)

const (
	// followChunk is the most one read of a followed log takes, so a
	// large existing log is taken in pieces rather than whole.
	followChunk = 64 << 10
	// maxFollowLine caps the unterminated line the tail holds while it
	// waits for the newline. A delta record is a few hundred bytes; a
	// line past this is a wrong path or a writer that died mid-record and
	// never ends its line, and holding it would grow the daemon by
	// everything appended after it.
	maxFollowLine = 1 << 20
	// followTail is how many of the bytes just before the read offset
	// each poll reads again, to tell a file rewritten in place from one
	// appended to.
	followTail = 64
)

// Follow tails a JSONL delta log — the file worldgen -churn -out
// appends to — and feeds each new batch through the single writer
// loop, so a live churn generator drives the daemon without HTTP in
// between. It polls every poll interval (default 1s), waits for the
// file to appear, and keeps the partial last line buffered until its
// newline arrives, so a write that lands mid-record is never split.
// A partial line that grows past maxFollowLine is counted as one bad
// line as soon as it does and skipped through its newline.
//
// The log may be rotated or truncated under the tail. When path names
// a different file than the one open (renamed away and recreated), the
// tail reads the old file to its end, drops its unterminated last line
// and follows the new file from its start. When the open file shrinks
// below the read offset (truncated in place), the tail drops the
// partial line and rereads from the start. A truncation that regrows
// the file past the old offset between two polls is caught by the last
// bytes read: each poll reads the (up to 64) bytes just before the
// offset again, and if they changed, the tail treats the file as
// truncated. A rewrite whose bytes just before the old offset are the
// ones read there is not detected: the tail resumes at the old offset.
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
	var off int64  // bytes read from f so far: its offset
	var buf []byte // bytes read but not yet terminated by '\n'
	var skip bool  // dropping an overlong line through its newline
	var pending []delta.Delta
	chunk := make([]byte, followChunk)
	tail := make([]byte, 0, 2*followTail) // the last bytes read before off
	reread := make([]byte, followTail)

	// rewritten reports whether the bytes just before off differ from
	// the ones read there.
	rewritten := func() bool {
		got := reread[:len(tail)]
		n, _ := f.ReadAt(got, off-int64(len(tail)))
		return n < len(got) || !bytes.Equal(got, tail)
	}

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

	// drain reads f from its offset to EOF, a chunk at a time, and feeds
	// every complete line.
	drain := func() error {
		for {
			n, rerr := f.Read(chunk)
			off += int64(n)
			data := chunk[:n]
			tail = keepTail(tail, data)
			if skip {
				i := bytes.IndexByte(data, '\n')
				if i < 0 {
					data = nil
				} else {
					data, skip = data[i+1:], false
				}
			}
			buf = append(buf, data...)
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
			if len(buf) > maxFollowLine {
				s.followBad.Inc()
				buf, skip = nil, true
			}
			if rerr == io.EOF {
				return flush()
			}
			if rerr != nil {
				return rerr
			}
		}
	}

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		if f != nil {
			open, err := f.Stat()
			if err != nil {
				return err
			}
			if cur, err := os.Stat(path); err == nil && !os.SameFile(open, cur) {
				// Rotated: finish the old file, then start on the new one.
				if err := drain(); err != nil {
					return err
				}
				f.Close()
				f, off, buf, skip, tail = nil, 0, nil, false, tail[:0]
			} else if open.Size() < off || rewritten() {
				// Truncated in place, or rewritten since the last poll.
				if _, err := f.Seek(0, io.SeekStart); err != nil {
					return err
				}
				off, buf, skip, tail = 0, nil, false, tail[:0]
			}
		}
		if f == nil {
			var err error
			if f, err = os.Open(path); err != nil {
				continue // not created yet; keep waiting
			}
		}
		if err := drain(); err != nil {
			return err
		}
	}
}

// keepTail returns the last followTail bytes of tail followed by data,
// kept in tail's array (whose capacity is at least 2*followTail).
func keepTail(tail, data []byte) []byte {
	if len(data) >= followTail {
		return append(tail[:0], data[len(data)-followTail:]...)
	}
	tail = append(tail, data...)
	if extra := len(tail) - followTail; extra > 0 {
		tail = tail[:copy(tail, tail[extra:])]
	}
	return tail
}
