package cluster

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// AnswerCache memoizes committed-state answers under (state digest,
// canonical query key). It stores opaque values — the service layer
// puts its own report type in and copies it out on a hit — and is a
// bounded LRU: the working set is "the handful of repeat queries
// against the current committed state", so a small capacity holds the
// entire hot set while entries keyed by superseded state digests age
// out on their own even if the owner never calls InvalidateState.
//
// Correctness does not rest on eviction: the state digest rotates on
// every epoch commit (it folds in a strictly increasing epoch
// counter), so an entry for an old state can never be looked up after
// a commit — InvalidateState just reclaims the capacity eagerly.
type AnswerCache struct {
	capacity int

	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheEntry struct {
	key   string // state + "\x00" + query
	state string
	value any
}

// NewAnswerCache returns a cache holding at most capacity answers;
// capacity < 1 is treated as 1.
func NewAnswerCache(capacity int) *AnswerCache {
	if capacity < 1 {
		capacity = 1
	}
	return &AnswerCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

func cacheKey(state, query string) string { return state + "\x00" + query }

// Get looks up the answer cached for query under state, counting the
// hit or miss.
func (c *AnswerCache) Get(state, query string) (any, bool) {
	key := cacheKey(state, query)
	var value any
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.order.MoveToFront(el)
		value = el.Value.(*cacheEntry).value // under mu: Put may replace it
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return value, true
}

// Put caches value for query under state, evicting the least recently
// used entry past capacity. Putting an existing key replaces its
// value.
func (c *AnswerCache) Put(state, query string, value any) {
	key := cacheKey(state, query)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).value = value
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, state: state, value: value})
	for len(c.entries) > c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, e.key)
	}
}

// InvalidateState drops every entry cached under state, returning how
// many were dropped. The epoch-commit hook: the new state digest
// already makes the old entries unreachable; this frees their
// capacity in one sweep (the cache is small, so the scan is cheap).
func (c *AnswerCache) InvalidateState(state string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.state == state {
			c.order.Remove(el)
			delete(c.entries, e.key)
			dropped++
		}
		el = next
	}
	return dropped
}

// Flush drops every entry, keeping the cumulative hit/miss counters
// (which feed monotone /stats aggregates). For memory reclamation and
// for measurements that need the uncached solve path.
func (c *AnswerCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*list.Element)
	c.order.Init()
}

// Len returns the current entry count.
func (c *AnswerCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits returns the cumulative hit count.
func (c *AnswerCache) Hits() uint64 { return c.hits.Load() }

// Misses returns the cumulative miss count.
func (c *AnswerCache) Misses() uint64 { return c.misses.Load() }
