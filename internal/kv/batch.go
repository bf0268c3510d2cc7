package kv

// WriteBatch collects the puts and deletes of one group-committed
// Store.ApplyCtx, the store's only write. The batch is the unit of
// amortization on the write path: each region it touches appends every
// record to the WAL as one record with a single sync, then finds the
// batch's places in the memtable without its lock and links the whole
// batch in under one acquisition of it, so a reader sees the batch
// whole, after its sync, or not at all. The commit holds the region's
// commit lock, not the lock readers take, so reads never wait on the
// sync, and wait on the memtable only while the batch links in.
//
// Mutations within a batch are applied in the order they were added
// (later entries win on duplicate keys). A WriteBatch is not safe for
// concurrent use; the key and value slices are not copied until Apply,
// so callers must not modify them before Apply returns.
type WriteBatch struct {
	muts []mutation
}

// mutation is one pending write: a put or a tombstone.
type mutation struct {
	k          kind
	key, value []byte
}

// Put queues an insert/overwrite of key.
func (b *WriteBatch) Put(key, value []byte) {
	b.muts = append(b.muts, mutation{kindPut, key, value})
}

// Delete queues a tombstone for key.
func (b *WriteBatch) Delete(key []byte) {
	b.muts = append(b.muts, mutation{kindDelete, key, nil})
}

// Len returns the number of queued mutations.
func (b *WriteBatch) Len() int { return len(b.muts) }

// Grow pre-allocates room for n additional mutations, saving repeated
// slice growth when the batch size is known up front.
func (b *WriteBatch) Grow(n int) {
	if cap(b.muts)-len(b.muts) < n {
		muts := make([]mutation, len(b.muts), len(b.muts)+n)
		copy(muts, b.muts)
		b.muts = muts
	}
}

// Reset empties the batch for reuse, keeping its capacity.
func (b *WriteBatch) Reset() { b.muts = b.muts[:0] }

// sameSlice reports whether a and b are the identical backing slice
// (same base pointer and length), used to spot repeated value slices
// within a batch without comparing contents.
func sameSlice(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}
