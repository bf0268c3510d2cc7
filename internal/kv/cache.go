package kv

import (
	"container/list"
	"sync"
)

// blockCache is a sharded-nothing LRU cache of decompressed data blocks,
// the stand-in for HBase's block cache. Capacity is in bytes.
type blockCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List
	items    map[cacheKey]*list.Element
}

type cacheKey struct {
	table uint64
	block int
}

type cacheEntry struct {
	key  cacheKey
	data []byte
}

func newBlockCache(capacity int64) *blockCache {
	if capacity <= 0 {
		return nil
	}
	return &blockCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element),
	}
}

func (c *blockCache) get(table uint64, block int) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[cacheKey{table, block}]; ok {
		c.ll.MoveToFront(e)
		return e.Value.(*cacheEntry).data, true
	}
	return nil, false
}

// put inserts a block. data must be the decompressed buffer (loadBlock
// inflates before caching), so used tracks resident memory, not the
// smaller on-disk size — capacity would otherwise overcommit by the
// compression ratio.
func (c *blockCache) put(table uint64, block int, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey{table, block}
	if e, ok := c.items[k]; ok {
		c.ll.MoveToFront(e)
		old := e.Value.(*cacheEntry)
		c.used += int64(len(data) - len(old.data))
		old.data = data
	} else {
		e := c.ll.PushFront(&cacheEntry{key: k, data: data})
		c.items[k] = e
		c.used += int64(len(data))
	}
	for c.used > c.capacity && c.ll.Len() > 0 {
		back := c.ll.Back()
		entry := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, entry.key)
		c.used -= int64(len(entry.data))
	}
}

// dropTable evicts every cached block of a retired table. The last
// decRef calls it, when no reader can ask for those blocks again, so
// dead blocks stop holding capacity until LRU eviction reaches them.
func (c *blockCache) dropTable(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.ll.Front(); e != nil; {
		next := e.Next()
		if entry := e.Value.(*cacheEntry); entry.key.table == id {
			c.ll.Remove(e)
			delete(c.items, entry.key)
			c.used -= int64(len(entry.data))
		}
		e = next
	}
}

// len returns the number of cached blocks (for tests).
func (c *blockCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
