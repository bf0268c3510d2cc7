package kv

import (
	"sync"
	"sync/atomic"
)

// blockCache is an LRU cache of decompressed data blocks, the stand-in
// for HBase's block cache. Capacity is in bytes. The cache owns its
// blocks, as HBase 2's refcounted block cache does:
//
//   - An entry carries a reference count: one reference while it is in
//     items (the cache's own), one for each reader holding its bytes.
//   - A block is loaded once. A miss inserts an in-flight entry; readers
//     of the same block wait for that load instead of reading it again,
//     and count as hits. A failed load leaves the cache, and each waiter
//     loads the block itself.
//   - The last release of an evicted entry puts it, buffer and all, on
//     a short free list, and the next miss decompresses into that
//     buffer. Every reader releases its entry once it holds no view of
//     it: a scan when its pair is passed, a point read once it copied
//     its value. A compaction reads its inputs past the cache, as
//     HBase's do.
type blockCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       lru
	items    map[cacheKey]*cacheEntry
	free     []*cacheEntry // released entries, buffers kept, for the next misses
}

type cacheKey struct {
	table uint64
	block int
}

type cacheEntry struct {
	key        cacheKey
	data       []byte
	prev, next *cacheEntry // LRU links, set only while the entry is in ll

	refs  atomic.Int32
	state atomic.Int32 // entryLoading, then entryLoaded (in ll) or entryFailed (out of items)
}

// The states of an entry.
const (
	entryLoading = iota
	entryLoaded
	entryFailed
)

// maxFreeBlocks bounds the free list. A miss takes an entry from it and
// an insertion evicts about one, so it rarely holds more than a few;
// the bound caps what a burst of evictions (a dropped table) keeps.
const maxFreeBlocks = 32

// poisonRecycled makes every recycled buffer unreadable as a block (set
// by tests), so a view held past its release reads garbage at once.
var poisonRecycled bool

func newBlockCache(capacity int64) *blockCache {
	if capacity <= 0 {
		return nil
	}
	c := &blockCache{capacity: capacity, items: make(map[cacheKey]*cacheEntry)}
	c.ll.init()
	return c
}

// The states acquire returns.
const (
	cacheHit  = iota // the entry holds the block
	cacheWait        // another reader is loading it: wait for its state to change
	cacheMiss        // a new in-flight entry: the caller loads it, then calls loaded
)

// acquire returns block's entry with a reference taken for the caller.
func (c *blockCache) acquire(table uint64, block int) (*cacheEntry, int) {
	k := cacheKey{table, block}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		e.refs.Add(1)
		if e.state.Load() == entryLoading {
			return e, cacheWait
		}
		c.ll.moveToFront(e)
		return e, cacheHit
	}
	var e *cacheEntry
	if n := len(c.free); n > 0 {
		e, c.free[n-1] = c.free[n-1], nil
		c.free = c.free[:n-1]
	} else {
		e = new(cacheEntry)
	}
	e.key = k
	e.refs.Store(2)
	e.state.Store(entryLoading)
	c.items[k] = e
	return e, cacheMiss
}

// loaded ends the load of an entry acquire returned as a miss: on
// success the entry joins the LRU, on failure it leaves the cache.
// Either way its state changes, which releases its waiters.
func (c *blockCache) loaded(e *cacheEntry, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		delete(c.items, e.key)
		e.refs.Add(-1) // the caller still holds one
		e.state.Store(entryFailed)
		return
	}
	c.ll.pushFront(e)
	c.used += int64(len(e.data))
	e.state.Store(entryLoaded)
	for c.used > c.capacity && c.ll.len > 0 {
		c.evictLocked(c.ll.root.prev)
	}
}

// release gives back a reference acquire took; e may be nil (no cache,
// or nothing held).
func (c *blockCache) release(e *cacheEntry) {
	if e != nil && e.refs.Add(-1) == 0 {
		c.mu.Lock()
		c.recycleLocked(e)
		c.mu.Unlock()
	}
}

// evictLocked drops the cache's reference to an entry in the LRU.
func (c *blockCache) evictLocked(e *cacheEntry) {
	c.ll.remove(e)
	delete(c.items, e.key)
	c.used -= int64(len(e.data))
	if e.refs.Add(-1) == 0 {
		c.recycleLocked(e)
	}
}

// recycleLocked keeps an entry no one references for the next miss,
// unless the free list is full.
func (c *blockCache) recycleLocked(e *cacheEntry) {
	if len(c.free) == maxFreeBlocks {
		return
	}
	if poisonRecycled {
		for i := range e.data {
			e.data[i] = 0xdb
		}
	}
	e.data = e.data[:0]
	c.free = append(c.free, e)
}

// dropTable evicts every cached block of a retired table. The last
// decRef calls it, when no reader can ask for those blocks again, so
// dead blocks stop holding capacity until LRU eviction reaches them.
func (c *blockCache) dropTable(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.ll.root.next; e != &c.ll.root; {
		next := e.next
		if e.key.table == id {
			c.evictLocked(e)
		}
		e = next
	}
}

// len returns the number of cached blocks (for tests).
func (c *blockCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.len
}

// lru is the cache's recency list, most recent first, linked through
// the entries themselves so that a miss allocates no list element.
type lru struct {
	root cacheEntry // root.next is the front, root.prev the back
	len  int
}

func (l *lru) init() { l.root.next, l.root.prev = &l.root, &l.root }

func (l *lru) pushFront(e *cacheEntry) {
	e.prev, e.next = &l.root, l.root.next
	e.prev.next, e.next.prev = e, e
	l.len++
}

func (l *lru) remove(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	l.len--
}

func (l *lru) moveToFront(e *cacheEntry) {
	l.remove(e)
	l.pushFront(e)
}
