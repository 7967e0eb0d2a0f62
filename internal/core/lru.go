package core

import "container/list"

// DefaultGroupCacheCap is the default bound on the Allocator's
// group-share cache: generous enough that dynamic simulations and the
// serving layer's churn batches revisit their working set without
// eviction, small enough that sustained adversarial churn (every event
// a brand-new group LP) cannot grow memory without limit. Override per
// Allocator with SetGroupCacheCap.
const DefaultGroupCacheCap = 1024

// groupLRU is the size-capped LRU behind the Allocator's churn-delta
// share cache. Entries map a group LP's exact serialized bits to the
// solved share vector; recency is tracked with an intrusive list so
// that a hit is one map lookup plus a pointer splice, and inserting
// past the cap evicts from the cold end. Evicting never changes
// results — cache keys capture the entire LP, so a re-solve after
// eviction recomputes bit-identical shares (pinned by
// TestGroupCacheEvictionExact).
type groupLRU struct {
	cap       int
	entries   map[groupCacheKey]*list.Element
	order     *list.List // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
}

// lruEntry is one cached solution; stored as the list element value so
// eviction can delete its map key without a reverse lookup.
type lruEntry struct {
	key groupCacheKey
	x   []float64
}

func newGroupLRU(cap int) *groupLRU {
	if cap < 1 {
		cap = DefaultGroupCacheCap
	}
	return &groupLRU{
		cap:     cap,
		entries: make(map[groupCacheKey]*list.Element),
		order:   list.New(),
	}
}

// get returns the cached share vector for k, marking it most recently
// used. The returned slice is shared and must not be mutated.
func (c *groupLRU) get(k groupCacheKey) ([]float64, bool) {
	e, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(e)
	return e.Value.(*lruEntry).x, true
}

// put inserts a solved share vector and returns how many cold entries
// were evicted to stay within the cap.
func (c *groupLRU) put(k groupCacheKey, x []float64) int {
	if e, ok := c.entries[k]; ok {
		// Possible when one batch solves two groups with equal keys
		// (isomorphic components missing from the cache): both solves
		// are bit-identical, so either vector may stay.
		c.order.MoveToFront(e)
		return 0
	}
	c.entries[k] = c.order.PushFront(&lruEntry{key: k, x: x})
	return c.evict()
}

// evict drops cold entries until the cache is within its cap and
// returns how many it dropped.
func (c *groupLRU) evict() int {
	evicted := 0
	for len(c.entries) > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*lruEntry).key)
		c.evictions++
		evicted++
	}
	return evicted
}

// reset drops every entry but keeps the cumulative counters.
func (c *groupLRU) reset() {
	clear(c.entries)
	c.order.Init()
}

// setCap rebounds the cache, evicting cold entries immediately if the
// new cap is smaller than the current population; cap < 1 restores the
// default.
func (c *groupLRU) setCap(cap int) int {
	if cap < 1 {
		cap = DefaultGroupCacheCap
	}
	c.cap = cap
	return c.evict()
}

// CacheStats is the cumulative hit/miss/evict trajectory of one
// Allocator's group-share cache, read straight off the cache. (The
// serving layer's shard stats count the same events per batch from
// each call's Delta instead.)
type CacheStats struct {
	Hits      uint64 // group solves satisfied by cached share vectors
	Misses    uint64 // group solves that had to run the LP
	Evictions uint64 // entries dropped to stay within the cap
	Entries   int    // current population
	Cap       int    // configured bound
}
