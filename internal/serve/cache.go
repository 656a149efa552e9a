package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is a sharded LRU keyed by sparsity-pattern fingerprint. Sharding by
// the key's first byte keeps lock contention off the hot read path when many
// goroutines hit the cache concurrently; each shard holds its own LRU list.
type Cache struct {
	shards    []*cacheShard
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type cacheShard struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type cacheEntry struct {
	key string
	val any
}

// NewCache builds a cache holding up to capacity entries spread over
// nShards shards (both floored to sane minimums; nShards is rounded up to a
// power of two so shard selection is a mask).
func NewCache(capacity, nShards int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	if nShards < 1 {
		nShards = 1
	}
	pow := 1
	for pow < nShards {
		pow *= 2
	}
	nShards = pow
	if nShards > capacity {
		nShards = 1
	}
	perShard := (capacity + nShards - 1) / nShards
	c := &Cache{shards: make([]*cacheShard, nShards)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap: perShard,
			ll:  list.New(),
			m:   make(map[string]*list.Element, perShard),
		}
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	// Inline FNV-1a so arbitrary key shapes spread evenly.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[int(h)&(len(c.shards)-1)]
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	val, ok := c.lookup(key, true)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Peek returns the cached value for key without touching the hit/miss
// counters or the LRU order. It exists for double-check lookups that already
// counted their outcome once (the server's pre-flight Get): counting the
// same request's miss twice would skew every hit-rate derived downstream.
func (c *Cache) Peek(key string) (any, bool) {
	return c.lookup(key, false)
}

// lookup reads key's value under the shard lock (Put refreshes values in
// place), optionally marking it most recently used.
func (c *Cache) lookup(key string, touch bool) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return nil, false
	}
	if touch {
		s.ll.MoveToFront(el)
	}
	return el.Value.(*cacheEntry).val, true
}

// Put inserts or refreshes key, evicting the shard's LRU entry when full.
func (c *Cache) Put(key string, val any) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.m[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
	if s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.m, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// Clear drops every entry (hot-reload invalidation: results computed by a
// swapped-out model must not outlive it). Hit/miss/eviction counters are
// lifetime totals and keep counting across the flush.
func (c *Cache) Clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.ll.Init()
		clear(s.m)
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Hits, Misses, and Evictions return the lifetime counters. Peek lookups are
// excluded by design; evictions count LRU displacements, not Put refreshes.
func (c *Cache) Hits() uint64      { return c.hits.Load() }
func (c *Cache) Misses() uint64    { return c.misses.Load() }
func (c *Cache) Evictions() uint64 { return c.evictions.Load() }
