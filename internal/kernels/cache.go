package kernels

import (
	"container/list"
	"sync"

	"gpurel/internal/asm"
	"gpurel/internal/device"
)

// Cache shares built runners between everything that asks for the same
// (workload, device, pipeline): the study's profiling, injection and
// beam phases, and the daemon's concurrent campaigns. A runner is
// expensive twice over — the golden run that builds it costs more than
// most campaigns' injection work, and its snapshots and sub-launch
// images hold tens of megabytes — so each one is built at most once per
// residency, and concurrent requests for a cold key block on that one
// build.
//
// With a positive byte budget the cache is an LRU: once the resident
// runners' MemoryFootprint sum exceeds the budget, least-recently-used
// entries are dropped. Eviction only drops the cache's reference;
// holders keep using the runner (runners are immutable after the golden
// run) and the memory is reclaimed when they finish. Budget 0 never
// evicts. A failed build is never pinned: the next Get retries it.
type Cache struct {
	mu      sync.Mutex
	budget  int64 // <= 0: unbounded
	used    int64
	lru     *list.List // of *cacheEntry; front = most recently used
	entries map[cacheKey]*cacheEntry

	hits, misses, evictions uint64
}

type cacheKey struct {
	name, device string
	opt          asm.OptLevel
}

type cacheEntry struct {
	key  cacheKey
	elem *list.Element
	size int64 // 0 until the build completes

	once sync.Once
	r    *Runner
	err  error
}

// NewCache returns a cache with the given byte budget (<= 0: unbounded).
func NewCache(budget int64) *Cache {
	return &Cache{
		budget:  budget,
		lru:     list.New(),
		entries: make(map[cacheKey]*cacheEntry),
	}
}

// Get returns the runner for (name, dev, opt), building it with
// NewRunner on first use. Its signature is NewRunner's, so a Get method
// value can stand wherever a runner constructor is expected.
func (c *Cache) Get(name string, build Builder, dev *device.Device, opt asm.OptLevel) (*Runner, error) {
	key := cacheKey{name: name, device: dev.Name, opt: opt}
	c.mu.Lock()
	ent := c.entries[key]
	if ent != nil {
		c.lru.MoveToFront(ent.elem)
		c.hits++
	} else {
		ent = &cacheEntry{key: key}
		ent.elem = c.lru.PushFront(ent)
		c.entries[key] = ent
		c.misses++
	}
	c.mu.Unlock()

	ent.once.Do(func() {
		ent.r, ent.err = NewRunner(name, build, dev, opt)
		c.mu.Lock()
		defer c.mu.Unlock()
		if ent.err != nil {
			c.drop(ent)
			return
		}
		ent.size = int64(ent.r.MemoryFootprint())
		c.used += ent.size
		c.evictLocked()
	})
	return ent.r, ent.err
}

// evictLocked removes entries from the cold end until the budget holds,
// never evicting entries whose build is still in flight (size 0) and
// always keeping at least one finished entry resident.
func (c *Cache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for c.used > c.budget {
		var victim *cacheEntry
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*cacheEntry)
			if e.size > 0 {
				victim = e
				break
			}
		}
		if victim == nil || c.lru.Len() <= 1 {
			return
		}
		c.drop(victim)
		c.evictions++
	}
}

// drop unlinks an entry. Callers hold c.mu.
func (c *Cache) drop(e *cacheEntry) {
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
	}
	c.lru.Remove(e.elem)
	c.used -= e.size
}

// Stats returns the cache counters.
func (c *Cache) Stats() (hits, misses, evictions uint64, usedBytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.used, len(c.entries)
}
