package kv

import (
	"bytes"
	"context"
	"sync/atomic"
)

// bg is the context of tests that exercise no deadline or cancellation:
// every Store operation takes one, and most tests have none to give.
var bg = context.Background()

// put writes one pair through ApplyCtx, the store's one write.
func put(s Store, key, value []byte) error {
	var b WriteBatch
	b.Put(key, value)
	return s.ApplyCtx(bg, &b)
}

// collectEach builds ScanCollect tasks that map every pair through
// process inside the worker and hand the values process keeps to the
// consumer in batches of up to 512.
func collectEach[T any](process func(key, value []byte) (T, bool, error)) func() TaskCollector[[]T] {
	return func() TaskCollector[[]T] {
		var batch []T
		return TaskCollector[[]T]{
			Add: func(k, v []byte) ([]T, bool, error) {
				x, keep, err := process(k, v)
				if err != nil || !keep {
					return nil, false, err
				}
				batch = append(batch, x)
				if len(batch) < 512 {
					return nil, false, nil
				}
				full := batch
				batch = nil
				return full, true, nil
			},
			Finish: func() ([]T, bool, error) { return batch, len(batch) > 0, nil },
		}
	}
}

// scanEach scans ranges through ScanCollect with collectEach tasks and
// hands the kept values to emit one at a time; emit returning false
// stops the scan.
func scanEach[T any](ctx context.Context, s Store, ranges []KeyRange, process func(key, value []byte) (T, bool, error), emit func(T) bool) error {
	return ScanCollect(ctx, s, ranges, collectEach(process), func(batch []T) bool {
		for _, x := range batch {
			if !emit(x) {
				return false
			}
		}
		return true
	})
}

// pair is one scanned key/value, copied out of the store.
type pair struct{ key, value []byte }

// scanPairs is scanEach with copies of whole pairs.
func scanPairs(ctx context.Context, s Store, ranges []KeyRange, emit func(key, value []byte) bool) error {
	return scanEach(ctx, s, ranges, func(k, v []byte) (pair, bool, error) {
		return pair{bytes.Clone(k), bytes.Clone(v)}, true, nil
	}, func(p pair) bool { return emit(p.key, p.value) })
}

// iter is a lone table's iterator over r, outside any merge.
func (t *table) iter(r KeyRange) *tableIter {
	it := &tableIter{t: t, bi: -1}
	it.seek(r, false)
	return it
}

// get returns a cached block's bytes, bumping it to the LRU front.
func (c *blockCache) get(table uint64, block int) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[cacheKey{table, block}]
	if !ok || e.state.Load() == entryLoading {
		return nil, false
	}
	c.ll.moveToFront(e)
	return e.data, true
}

// put caches a loaded block. data must be the decompressed buffer, so
// used tracks resident memory, not the smaller on-disk size.
func (c *blockCache) put(table uint64, block int, data []byte) {
	e, state := c.acquire(table, block)
	if state == cacheMiss {
		e.data = data
		c.loaded(e, true)
	}
	c.release(e)
}

// Len returns the number of cached blocks; the caller holds the
// cache's lock.
func (l *lru) Len() int { return l.len }

// put writes one unsynced entry to the WAL and the memtable, outside any
// batch: the single-entry record older logs hold. Put and Delete use it.
func (r *region) put(key, value []byte, k kind) error {
	r.walMu.Lock()
	defer r.walMu.Unlock()
	if err := r.writable(); err != nil {
		return err
	}
	if r.log != nil {
		if err := r.log.append(k, key, value); err != nil {
			return err
		}
		if r.met != nil {
			atomic.AddInt64(&r.met.BytesWritten, int64(len(key)+len(value)+9))
		}
	}
	r.mem.put(bytes.Clone(key), bytes.Clone(value), k)
	return r.maybeFreeze()
}

// Put writes key through region.put.
func (r *region) Put(key, value []byte) error { return r.put(key, value, kindPut) }

// Delete writes a tombstone for key through region.put.
func (r *region) Delete(key []byte) error { return r.put(key, nil, kindDelete) }

// append frames one entry as a single-entry record, left in the buffer
// until the next flush.
func (l *wal) append(k kind, key, value []byte) error {
	l.buf = appendWALEntry(l.buf[:0], k, key, value)
	return l.appendRecord(l.buf)
}
