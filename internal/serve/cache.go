package serve

import "sync"

// cachedResponse is one fully rendered HTTP response: status plus JSON
// body. Caching the rendered bytes (not the decoded structures) makes a
// hit a map lookup and a write — no re-marshal, no facade call.
type cachedResponse struct {
	status int
	body   []byte
}

// cacheKey addresses one cached response without per-request string
// concatenation: the route tag namespaces the key spaces (so
// /v1/interface/snap can never collide with the snapshot digest) and
// arg carries the route-specific argument — the interface address, the
// normalized AS pair, the joined batch body. The struct is comparable,
// so the hot lookup allocates nothing.
type cacheKey struct {
	route uint8
	arg   string
}

// Route tags for cacheKey.
const (
	routeInterface uint8 = iota
	routeInterconnections
	routeSnapshot
	routeBatch
)

// cacheBudget bounds the bytes one epoch's entries hold, each entry
// charged len(key.arg)+len(body). The entry bound alone is not a memory
// cap: a batch is keyed by its raw body, up to maxBatchBody, so
// DefaultCacheEntries padded batches would pin gigabytes until the next
// swap.
const cacheBudget = 64 << 20

// epochCache is the query cache keyed by (epoch, request key). The
// invariant the daemon's consistency test pins: an entry never outlives
// the epoch it was rendered from. The cache holds one epoch at a time; a
// lookup against any other epoch misses, and the first store from a
// newer epoch — or the writer's advance at the swap — drops every entry:
// wholesale invalidation, never entry-by-entry decay.
//
// Stores are also monotonic: a late writer that rendered its response
// from an already superseded snapshot (it loaded Current just before an
// Apply landed) is silently dropped rather than resurrecting stale
// bytes under the new epoch.
type epochCache struct {
	max int // entry bound

	mu      sync.RWMutex
	epoch   int
	bytes   int // len(key.arg)+len(body), summed over entries
	entries map[cacheKey]cachedResponse
}

func newEpochCache(max int) *epochCache {
	// Epoch -1 is before any store; real epochs start at 0.
	return &epochCache{max: max, epoch: -1, entries: make(map[cacheKey]cachedResponse)}
}

// get returns the cached response for key rendered at epoch, if any.
//
//cfslint:hotpath
func (c *epochCache) get(epoch int, key cacheKey) (cachedResponse, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if epoch != c.epoch {
		return cachedResponse{}, false
	}
	r, ok := c.entries[key]
	return r, ok
}

// put stores a response rendered from the snapshot at epoch. A stale
// epoch is dropped; a newer epoch empties the cache first. It reports
// whether the store was refused because the entry bound or the byte
// budget is reached (a memory cap, not an LRU — a fresh epoch empties
// the cache anyway); the caller surfaces that as serve.cache.full_drops.
//
//cfslint:hotpath
func (c *epochCache) put(epoch int, key cacheKey, r cachedResponse) (fullDrop bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch < c.epoch {
		return false
	}
	c.advanceLocked(epoch)
	n := len(key.arg) + len(r.body)
	old, resident := c.entries[key]
	if resident {
		n -= len(key.arg) + len(old.body)
	} else if len(c.entries) >= c.max {
		return true
	}
	if c.bytes+n > cacheBudget {
		return true
	}
	c.entries[key] = r
	c.bytes += n
	return false
}

// advance moves the cache to epoch, emptying it when epoch is newer.
// The writer loop calls this right after publishing a snapshot so stale
// entries vanish at the swap, not lazily at the next store.
func (c *epochCache) advance(epoch int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(epoch)
}

// advanceLocked is advance for a caller holding mu; it allocates once
// per published epoch, never per request. It swaps in a fresh map
// rather than clearing the old one: clear walks every slot, with a
// write barrier per pointer while the collector runs (about 90 µs at
// 2.6k entries, milliseconds at worst), and the first miss of a new
// epoch — the request that makes the epoch visible — would wait for it.
func (c *epochCache) advanceLocked(epoch int) {
	if epoch > c.epoch {
		c.epoch, c.bytes = epoch, 0
		c.entries = make(map[cacheKey]cachedResponse)
	}
}

// len reports the current entry count (test hook).
func (c *epochCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
