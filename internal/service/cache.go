package service

import (
	"container/list"
	"sync"

	"stems/internal/store"
)

// The content address of a run's result is stems.RunKey — one hashing
// contract shared by this cache, the disk store beneath it, and the
// cluster client's shard routing.

// flight is one in-progress computation of a cache key. Followers wait on
// done; a failed flight leaves err set and followers recompute for
// themselves (errors are never cached).
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// resultCache is a bounded LRU of canonical result bytes keyed by
// stems.RunKey, with single-flight de-duplication: concurrent jobs
// computing the same key run one simulation, the rest wait and share the
// bytes. With a disk store attached it becomes the memory tier of a
// two-tier cache: stored results are written through to disk, and a
// memory miss consults the store before conceding — so a restarted
// daemon (cold memory, warm disk) answers repeat jobs without
// recomputing, byte-identically.
type resultCache struct {
	mu      sync.Mutex
	bound   int
	disk    *store.Store             // nil = memory-only
	entries map[string]*list.Element // key → ll element holding *cacheEntry
	ll      *list.List               // front = most recently used
	flights map[string]*flight
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	key  string
	data []byte
}

func newResultCache(bound int, disk *store.Store) *resultCache {
	if bound <= 0 {
		bound = 1
	}
	return &resultCache{
		bound:   bound,
		disk:    disk,
		entries: make(map[string]*list.Element),
		ll:      list.New(),
		flights: make(map[string]*flight),
	}
}

// lookup asks the cache for key once. A memory or disk hit returns the
// bytes with a nil flight (a disk hit re-installs them in the memory
// tier). Otherwise it returns the key's flight: one already in progress,
// to wait on, or a new one the caller leads (lead true) and must resolve
// exactly once. A hit counts as a hit and a led flight as the key's one
// miss; a wait on another flight counts when it succeeds (sharedHit).
func (c *resultCache) lookup(key string) (data []byte, fl *flight, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).data, nil, false
	}
	if fl = c.flights[key]; fl != nil {
		return nil, fl, false
	}
	if c.disk != nil {
		if data, ok := c.disk.Get(key); ok {
			c.hits++
			c.installLocked(key, data)
			return data, nil, false
		}
	}
	c.misses++
	fl = &flight{done: make(chan struct{})}
	c.flights[key] = fl
	return nil, fl, true
}

// resolve completes a flight: a successful result is stored in the LRU,
// a failure only wakes the followers (they recompute independently —
// e.g. the leader's job was cancelled, which says nothing about the
// followers' jobs).
func (c *resultCache) resolve(key string, fl *flight, data []byte, err error) {
	c.mu.Lock()
	fl.data, fl.err = data, err
	delete(c.flights, key)
	if err == nil {
		c.storeLocked(key, data)
	}
	c.mu.Unlock()
	close(fl.done)
}

// storeLocked records a freshly computed result in both tiers: the
// memory LRU and (write-through) the disk store.
func (c *resultCache) storeLocked(key string, data []byte) {
	c.installLocked(key, data)
	if c.disk != nil {
		// Best-effort: a full or failing disk degrades the daemon to its
		// pre-store behaviour (memory-only), it does not fail the job.
		c.disk.Put(key, data) //nolint:errcheck
	}
}

// installLocked places bytes in the memory tier only — used for disk
// hits, where writing back to disk would be a no-op.
func (c *resultCache) installLocked(key string, data []byte) {
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).data = data
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, data: data})
	for c.ll.Len() > c.bound {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// counters returns cumulative hit/miss counts and the current size.
func (c *resultCache) counters() (hits, misses uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

// sharedHit records a hit served by another run's flight: the waiter
// avoided a recomputation just like an LRU hit, and the /metrics
// cache-hit counter says so.
func (c *resultCache) sharedHit() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}
