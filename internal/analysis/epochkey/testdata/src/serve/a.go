// Package serve is epochkey's fixture; its base name matches the real
// internal/serve. The stubs mirror the shapes the pass matches on: an
// epochCache with get/put/advance, a System whose Apply
// publishes, and a Mapping carrying the Epoch stamp.
package serve

// Mapping is the snapshot stub.
type Mapping struct{ epoch int }

func (m *Mapping) Epoch() int { return m.epoch }

// System is the facade stub.
type System struct{ cur *Mapping }

func (s *System) Current() *Mapping { return s.cur }
func (s *System) Apply(log []int) (*Mapping, error) {
	s.cur = &Mapping{epoch: s.cur.epoch + 1}
	return s.cur, nil
}

type cacheKey struct{ arg string }

type cachedResponse struct{ body []byte }

// epochCache is the cache stub with the three checked entry points.
type epochCache struct{ epoch int }

func (c *epochCache) get(epoch int, key cacheKey) (cachedResponse, bool) {
	return cachedResponse{}, epoch == c.epoch
}
func (c *epochCache) put(epoch int, key cacheKey, r cachedResponse) { c.epoch = epoch }
func (c *epochCache) advance(epoch int)                             { c.epoch = epoch }

// Clean: the epoch keys derive from the rendered snapshot's own stamp.
func cachedQuery(s *System, c *epochCache, key cacheKey) {
	m := s.Current()
	epoch := m.Epoch()
	if r, ok := c.get(epoch, key); ok {
		_ = r
		return
	}
	c.put(epoch, key, cachedResponse{})
}

// Clean: an epoch handed in as a parameter belongs to the caller —
// this is the cache's own internal shape.
func passthrough(c *epochCache, epoch int, key cacheKey) {
	c.put(epoch, key, cachedResponse{})
}

// Flagged: a literal epoch names a version no snapshot carries.
func literalEpoch(c *epochCache, key cacheKey) {
	c.get(3, key) // want `epoch argument of epochCache.get does not derive from Mapping.Epoch\(\)`
}

// Flagged: an epoch fabricated from an unrelated computation.
func countedEpoch(c *epochCache, key cacheKey, batches [][]int) {
	epoch := len(batches)
	c.put(epoch, key, cachedResponse{}) // want `epoch argument of epochCache.put does not derive from Mapping.Epoch\(\)`
}

// Clean: the writer invalidates after the swap, keyed on the published
// snapshot's stamp.
func applyThenAdvance(s *System, c *epochCache, log []int) {
	m, err := s.Apply(log)
	if err != nil {
		return
	}
	c.advance(m.Epoch())
}

// Flagged: invalidating before the swap leaves the window where stale
// entries are served under the new epoch.
func advanceThenApply(s *System, c *epochCache, log []int) {
	m := s.Current()
	c.advance(m.Epoch()) // want `epochCache.advance is not reachable from the System.Apply swap`
	s.Apply(log)
}

// Suppressed: a justified boundary.
func warmCache(c *epochCache, key cacheKey) {
	//cfslint:ignore epochkey fixture's sanctioned warm-up: epoch 0 is the boot snapshot by construction
	c.put(0, key, cachedResponse{})
}
