package fleet

import (
	"fmt"
	"sync"
	"testing"
)

func TestPairCacheHitMissEvict(t *testing.T) {
	c := NewPairCache(3)
	if _, ok := c.Get("fpA", 0, 1); ok {
		t.Fatal("hit on empty cache")
	}
	gen := c.Gen()
	c.Put("fpA", gen, 0, 1, 1.5)
	c.Put("fpA", gen, 0, 2, 2.5)
	c.Put("fpB", c.Gen(), 0, 1, 9.0)
	if d, ok := c.Get("fpA", 0, 1); !ok || d != 1.5 {
		t.Fatalf("Get(fpA,0,1) = %v,%v want 1.5,true", d, ok)
	}
	// Cache is full; (fpA,0,2) is now the LRU entry. One more Put
	// evicts it.
	c.Put("fpB", c.Gen(), 3, 4, 4.0)
	if _, ok := c.Get("fpA", 0, 2); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if d, ok := c.Get("fpA", 0, 1); !ok || d != 1.5 {
		t.Fatal("recently-used entry was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Capacity != 3 {
		t.Fatalf("stats = %+v, want 1 eviction, 3 entries, cap 3", st)
	}
}

// The generation fence: a Put whose Gen was snapshotted before an
// Invalidate must be discarded — this is what makes a backend read
// racing a reweight swap harmless.
func TestPairCacheStaleGenerationRejected(t *testing.T) {
	c := NewPairCache(16)
	gen := c.Gen()     // filler snapshots generation...
	c.Invalidate("fp") // ...swap lands...
	c.Put("fp", gen, 0, 1, 3.0)
	if _, ok := c.Get("fp", 0, 1); ok {
		t.Fatal("stale-generation fill landed after Invalidate")
	}
	if st := c.Stats(); st.StalePuts != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v, want 1 stale put, 1 invalidation", st)
	}
	// A fill that observed the post-swap generation lands fine.
	c.Put("fp", c.Gen(), 0, 1, 4.0)
	if d, ok := c.Get("fp", 0, 1); !ok || d != 4.0 {
		t.Fatalf("fresh-generation fill lost: %v %v", d, ok)
	}
}

func TestPairCacheInvalidateDropsOnlyThatFingerprint(t *testing.T) {
	c := NewPairCache(16)
	c.Put("keep", c.Gen(), 1, 2, 1.0)
	c.Put("drop", c.Gen(), 1, 2, 2.0)
	c.Put("drop", c.Gen(), 3, 4, 3.0)
	c.Invalidate("drop")
	if _, ok := c.Get("drop", 1, 2); ok {
		t.Fatal("invalidated entry served")
	}
	if _, ok := c.Get("drop", 3, 4); ok {
		t.Fatal("invalidated entry served")
	}
	if d, ok := c.Get("keep", 1, 2); !ok || d != 1.0 {
		t.Fatal("unrelated fingerprint was invalidated")
	}
}

// Every /reweight retires a fingerprint the fleet never serves again,
// so K reweights of distinct fingerprints — cached or never cached —
// must leave no per-fingerprint state behind.
func TestPairCacheInvalidateLeavesNoBuckets(t *testing.T) {
	c := NewPairCache(16)
	const k = 50
	for i := 0; i < k; i++ {
		fp := fmt.Sprintf("fp%d", i)
		if i%2 == 0 {
			c.Put(fp, c.Gen(), 0, 1, float64(i))
		}
		c.Invalidate(fp)
	}
	if len(c.byFP) != 0 {
		t.Fatalf("%d fingerprint buckets left after %d invalidations, want 0", len(c.byFP), k)
	}
	if st := c.Stats(); st.Entries != 0 || st.Invalidations != k {
		t.Fatalf("stats = %+v, want 0 entries, %d invalidations", st, k)
	}
}

// A nil cache (capacity <= 0) is a valid always-miss receiver.
func TestPairCacheNilReceiver(t *testing.T) {
	c := NewPairCache(0)
	if c != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	c.Put("fp", c.Gen(), 0, 1, 1.0)
	if _, ok := c.Get("fp", 0, 1); ok {
		t.Fatal("nil cache returned a hit")
	}
	c.Invalidate("fp")
	if st := c.Stats(); st != (PairCacheStats{}) {
		t.Fatalf("nil cache stats = %+v, want zeroes", st)
	}
}

// Concurrent fills, reads and invalidations under -race; the invariant
// checked at the end is that no fingerprint that was invalidated last
// still holds entries filled with a pre-invalidation generation.
func TestPairCacheConcurrent(t *testing.T) {
	c := NewPairCache(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fp := fmt.Sprintf("fp%d", w%4)
			for i := 0; i < 500; i++ {
				switch i % 7 {
				case 6:
					c.Invalidate(fp)
				case 5:
					c.Stats()
				default:
					gen := c.Gen()
					c.Get(fp, i%16, (i+1)%16)
					c.Put(fp, gen, i%16, (i+1)%16, float64(i))
				}
			}
		}(w)
	}
	wg.Wait()
	// Final sweep: after a last invalidation nothing may be served.
	for w := 0; w < 4; w++ {
		fp := fmt.Sprintf("fp%d", w)
		c.Invalidate(fp)
		for u := 0; u < 16; u++ {
			for v := 0; v < 16; v++ {
				if _, ok := c.Get(fp, u, v); ok {
					t.Fatalf("%s (%d,%d) served after invalidation", fp, u, v)
				}
			}
		}
	}
}
