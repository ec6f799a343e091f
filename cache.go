package repro

import (
	"container/list"
	"sync"

	"repro/internal/plan"
)

// planCache is a bounded LRU mapping configuration+fingerprint keys to
// finished plans. Entries store the plan packed (plan.Pack: about 40
// bytes per node, where the tree takes 112) and hand out a fresh tree
// unpacked from it on every hit, so cached state can never be corrupted
// by a caller mutating its Result.
//
// Invalidation is structural rather than explicit: the key embeds the
// full canonical description of the graph (cardinalities, free sets,
// edges with selectivities and operators) and of the planning
// configuration, so any change to either simply misses and plans anew,
// while the stale entry ages out of the LRU.
type planCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	m         map[string]*list.Element
	evictions uint64 // lifetime LRU evictions
}

type cacheEntry struct {
	key   string
	plan  plan.Packed
	stats Stats
	alg   Algorithm
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[string]*list.Element, capacity),
	}
}

// get returns a Result for key, or false. The returned Result carries a
// fresh tree of the cached plan, the original run's Stats with CacheHit set,
// and no Graph (the caller fills in the graph it planned against). The
// key is probed as bytes, so a lookup allocates no key string.
func (c *planCache) get(key []byte) (*Result, bool) {
	c.mu.Lock()
	el, ok := c.m[string(key)]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	// The entry's packed plan is never written, only replaced wholesale,
	// so it can be read under the lock and the O(plan-size) unpack done
	// outside it — concurrent hits would otherwise serialize on it.
	cached := e.plan
	stats := e.stats
	alg := e.alg
	c.mu.Unlock()

	stats.CacheHit = true
	return &Result{Plan: cached.Unpack(), Stats: stats, Algorithm: alg}, true
}

// add stores a packed plan (plan.Pack) under key, evicting the least
// recently used entry when the cache is full.
func (c *planCache) add(key string, packed plan.Packed, stats Stats, alg Algorithm) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).plan = packed
		el.Value.(*cacheEntry).stats = stats
		el.Value.(*cacheEntry).alg = alg
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, plan: packed, stats: stats, alg: alg})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// snapshotEntries returns the cache contents oldest-first, so replaying
// them through add() reproduces the LRU recency order. The returned
// entries share the packed plans: those are only ever replaced
// wholesale (never written in place), so reading them after the lock is
// released is safe — the same contract get() relies on to unpack
// outside the lock.
func (c *planCache) snapshotEntries() []cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*cacheEntry))
	}
	return out
}

// len reports the current number of cached entries.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// evicted reports the lifetime number of LRU evictions.
func (c *planCache) evicted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
