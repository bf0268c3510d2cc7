package kv

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
)

const skiplistMaxHeight = 12

// skiplist is the memtable: a sorted in-memory map from key to the most
// recent entry (put or tombstone). The caller admits one writer at a time
// (the region's walMu), and only that writer changes the list, so it
// reads the list without the mutex: putBatch finds a batch's places
// unlocked and holds the write lock only to link the batch in. Readers
// take RLock, so each whole putBatch is atomic to them and scans during
// ingestion are safe.
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

// putBatch inserts or overwrites es (later entries win on duplicate
// keys), reordering es. Callers serialize it with every other write. It
// stable-sorts the batch and finds each key's predecessors without the
// lock, starting each search from the previous key's (a finger search),
// then takes the write lock only to set the overwritten values and link
// the new nodes, in descending key order: a reader sees all of the batch
// or none.
func (s *skiplist) putBatch(es []memEntry) {
	slices.SortStableFunc(es, func(a, b memEntry) int { return bytes.Compare(a.key, b.key) })
	type overwrite struct {
		n     *skipnode
		value []byte
		kind  kind
	}
	var sets []overwrite
	nodes := make([]*skipnode, 0, len(es))
	var prev [skiplistMaxHeight]*skipnode
	for level := range prev {
		prev[level] = s.head
	}
	for i, e := range es {
		if i+1 < len(es) && bytes.Equal(e.key, es[i+1].key) {
			continue
		}
		// A level's search starts at the previous key's predecessor, or
		// at this key's predecessor on the level above when that one
		// moved, which puts it past the former.
		for level, moved := s.height-1, false; level >= 0; level-- {
			n := prev[level]
			if moved {
				n = prev[level+1]
			}
			for n.next[level] != nil && bytes.Compare(n.next[level].key, e.key) < 0 {
				n = n.next[level]
			}
			moved = n != prev[level]
			prev[level] = n
		}
		if t := prev[0].next[0]; t != nil && bytes.Equal(t.key, e.key) {
			sets = append(sets, overwrite{t, e.value, e.kind})
			continue
		}
		// Until it is linked, a node's next holds its predecessors.
		node := &skipnode{key: e.key, value: e.value, kind: e.kind, next: make([]*skipnode, s.randomHeight())}
		copy(node.next, prev[:])
		nodes = append(nodes, node)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range sets {
		s.size += int64(len(o.value) - len(o.n.value))
		o.n.value, o.n.kind = o.value, o.kind
	}
	// Nodes sharing a predecessor link in front of each other, largest
	// key first, so each ends up before the larger ones.
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		for level := range n.next {
			p := n.next[level]
			n.next[level] = p.next[level]
			p.next[level] = n
		}
		s.height = max(s.height, len(n.next))
		s.size += int64(len(n.key) + len(n.value) + 48)
	}
	s.count += len(nodes)
}

// empty reports whether the list holds no entry.
func (s *skiplist) empty() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count == 0
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

// memEntry is one memtable entry: a merge iterator reads a memtable
// range as a slice of them (memtables are small by design).
type memEntry struct {
	key, value []byte
	kind       kind
}

// appendEntries appends the entries in r to dst. Most ranges of a
// selective plan match nothing in a given memtable, and those must cost
// nothing: dst is only grown for a match.
func (s *skiplist) appendEntries(dst []memEntry, r KeyRange) []memEntry {
	s.iterate(r, func(key, value []byte, k kind) bool {
		dst = append(dst, memEntry{key, value, k})
		return true
	})
	return dst
}
