package fleet

import (
	"container/list"
	"sync"
)

// PairCache is the router's hot-pair result cache: an LRU over
// (fingerprint, source, target) → distance, sized in pairs. Most road
// and social traffic concentrates on a tiny pair set, so answering the
// head of that distribution at the router avoids a backend round-trip
// entirely — the serving-side version of "move only the bytes a
// consumer can actually use".
//
// Correctness rests on two properties:
//
//   - Fingerprints are content hashes, so a cached distance can never
//     be numerically wrong for its fingerprint; the only staleness
//     hazard is liveness — serving a fingerprint the backends already
//     404 after Reweight's atomic swap.
//   - Invalidate closes that hazard with one cache-wide generation: it
//     drops the fingerprint's entries and bumps the generation in one
//     critical section, and every fill must present the generation it
//     observed *before* its backend read (Gen). A fill that raced any
//     swap carries a stale generation and is discarded, so once
//     Invalidate returns, no pre-swap read can ever re-populate the
//     fingerprint — the "no stale pair is ever served" contract the
//     -race tests pin down. The price is that a swap also discards the
//     fills of other fingerprints in flight across it; the gain is that
//     a retired fingerprint leaves nothing behind.
//
// All methods are safe for concurrent use. A nil *PairCache is a valid
// always-miss cache, so callers can disable caching by configuration
// without branching at every call site.
type PairCache struct {
	mu   sync.Mutex
	cap  int
	gen  uint64
	lru  *list.List                           // of *pairEntry; front = most recent
	byFP map[string]map[pairKey]*list.Element // fingerprint → its entries

	hits          int64
	misses        int64
	stalePuts     int64
	evictions     int64
	invalidations int64
}

type pairKey struct{ u, v int }

type pairEntry struct {
	fp   string
	key  pairKey
	dist float64
}

// NewPairCache returns a cache holding at most capacity pairs;
// capacity <= 0 returns nil (caching disabled — nil is a safe
// always-miss receiver).
func NewPairCache(capacity int) *PairCache {
	if capacity <= 0 {
		return nil
	}
	return &PairCache{
		cap:  capacity,
		lru:  list.New(),
		byFP: make(map[string]map[pairKey]*list.Element),
	}
}

// Gen returns the cache's current invalidation generation. A filler
// must call Gen before issuing its backend read and pass the value to
// Put: the pair (generation, backend answer) is what makes the fill
// safe against a concurrent Invalidate.
func (c *PairCache) Gen() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Get returns the cached distance for (fp, u, v) and refreshes its LRU
// position.
func (c *PairCache) Get(fp string, u, v int) (float64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byFP[fp][pairKey{u, v}]
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*pairEntry).dist, true
}

// Put inserts a distance filled from a backend read that observed
// generation gen (see Gen). A stale generation — an Invalidate ran
// between the Gen call and now — discards the fill.
func (c *PairCache) Put(fp string, gen uint64, u, v int, dist float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		c.stalePuts++
		return
	}
	b, ok := c.byFP[fp]
	if !ok {
		b = make(map[pairKey]*list.Element)
		c.byFP[fp] = b
	}
	k := pairKey{u, v}
	if el, ok := b[k]; ok {
		el.Value.(*pairEntry).dist = dist
		c.lru.MoveToFront(el)
		return
	}
	b[k] = c.lru.PushFront(&pairEntry{fp: fp, key: k, dist: dist})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		e := back.Value.(*pairEntry)
		c.lru.Remove(back)
		c.removeEntryLocked(e)
		c.evictions++
	}
}

// removeEntryLocked drops e from its fingerprint's entries, and the
// fingerprint with its last entry.
func (c *PairCache) removeEntryLocked(e *pairEntry) {
	b := c.byFP[e.fp]
	delete(b, e.key)
	if len(b) == 0 {
		delete(c.byFP, e.fp)
	}
}

// Invalidate atomically retires a fingerprint: its entries are dropped
// and the generation bumped in one critical section, so in-flight
// fills that read the backend before the swap can never land (their
// Put carries the old generation). Called by the router the moment a
// /reweight response confirms the backends swapped fingerprints.
func (c *PairCache) Invalidate(fp string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.byFP[fp] {
		c.lru.Remove(el)
	}
	delete(c.byFP, fp)
	c.gen++
	c.invalidations++
}

// PairCacheStats is a snapshot of the cache counters.
type PairCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	StalePuts     int64 `json:"stale_puts"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Capacity      int   `json:"capacity"`
}

// HitRate returns hits / (hits + misses), 0 with no traffic.
func (s PairCacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns the cache counters at this instant. A nil cache
// reports zeroes.
func (c *PairCache) Stats() PairCacheStats {
	if c == nil {
		return PairCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return PairCacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		StalePuts:     c.stalePuts,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       c.lru.Len(),
		Capacity:      c.cap,
	}
}
