package kv

import (
	"bytes"
	"math/rand"
	"sync"
)

const skiplistMaxHeight = 12

// skiplist is the memtable: a sorted in-memory map from key to the most
// recent entry (put or tombstone). The region's walMu admits one writer
// at a time; the mutex makes each put, and each whole putBatch, atomic
// to readers, who take RLock, so scans during ingestion are safe.
type skiplist struct {
	mu     sync.RWMutex
	head   *skipnode
	height int
	rng    *rand.Rand
	size   int64 // approximate memory footprint in bytes
	count  int
}

type skipnode struct {
	key   []byte
	value []byte
	kind  kind
	next  []*skipnode
}

func newSkiplist() *skiplist {
	return &skiplist{
		head:   &skipnode{next: make([]*skipnode, skiplistMaxHeight)},
		height: 1,
		rng:    rand.New(rand.NewSource(0x5EED)),
	}
}

func (s *skiplist) randomHeight() int {
	h := 1
	for h < skiplistMaxHeight && s.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// put inserts or overwrites the entry for key.
func (s *skiplist) put(key, value []byte, k kind) { s.putBatch([]memEntry{{key, value, k}}) }

// putBatch inserts or overwrites es in order (later entries win on
// duplicate keys) under one acquisition of the lock: a reader sees all
// of them or none.
func (s *skiplist) putBatch(es []memEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range es {
		s.insert(e.key, e.value, e.kind)
	}
}

// insert is putBatch's step, with the lock held.
func (s *skiplist) insert(key, value []byte, k kind) {
	var prev [skiplistMaxHeight]*skipnode
	n := s.head
	for level := s.height - 1; level >= 0; level-- {
		for n.next[level] != nil && bytes.Compare(n.next[level].key, key) < 0 {
			n = n.next[level]
		}
		prev[level] = n
	}
	if target := prev[0].next[0]; target != nil && bytes.Equal(target.key, key) {
		s.size += int64(len(value) - len(target.value))
		target.value = value
		target.kind = k
		return
	}
	h := s.randomHeight()
	if h > s.height {
		for level := s.height; level < h; level++ {
			prev[level] = s.head
		}
		s.height = h
	}
	node := &skipnode{key: key, value: value, kind: k, next: make([]*skipnode, h)}
	for level := 0; level < h; level++ {
		node.next[level] = prev[level].next[level]
		prev[level].next[level] = node
	}
	s.size += int64(len(key) + len(value) + 48)
	s.count++
}

// get returns the entry for key, if present.
func (s *skiplist) get(key []byte) (value []byte, k kind, ok bool) {
	var e [1]memEntry
	s.getBatch([][]byte{key}, e[:])
	return e[0].value, e[0].kind, e[0].kind != 0
}

// getBatch sets out[i] to the entry for keys[i], leaving a miss's kind
// 0. It holds the read lock once, so a concurrent putBatch is seen whole
// or not at all.
func (s *skiplist) getBatch(keys [][]byte, out []memEntry) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, key := range keys {
		if n := s.seek(key); n != nil && bytes.Equal(n.key, key) {
			out[i] = memEntry{n.key, n.value, n.kind}
		}
	}
}

// seek returns the first node with key >= target.
func (s *skiplist) seek(target []byte) *skipnode {
	n := s.head
	for level := s.height - 1; level >= 0; level-- {
		for n.next[level] != nil && bytes.Compare(n.next[level].key, target) < 0 {
			n = n.next[level]
		}
	}
	return n.next[0]
}

// iterate calls fn for each entry with key in [start, end) until fn
// returns false. The snapshot is consistent because nodes are immutable
// once linked, except for value updates which are newest-wins anyway.
func (s *skiplist) iterate(r KeyRange, fn func(key, value []byte, k kind) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n *skipnode
	if r.Start == nil {
		n = s.head.next[0]
	} else {
		n = s.seek(r.Start)
	}
	for n != nil {
		if r.End != nil && bytes.Compare(n.key, r.End) >= 0 {
			return
		}
		if !fn(n.key, n.value, n.kind) {
			return
		}
		n = n.next[0]
	}
}

// memIter adapts a skiplist snapshot to the Iterator interface by
// materializing the matching entries (memtables are small by design).
type memEntry struct {
	key, value []byte
	kind       kind
}

// entries starts from a nil slice: most ranges of a selective plan
// match nothing in a given memtable, and those must cost nothing.
func (s *skiplist) entries(r KeyRange) []memEntry {
	var out []memEntry
	s.iterate(r, func(key, value []byte, k kind) bool {
		out = append(out, memEntry{key, value, k})
		return true
	})
	return out
}
