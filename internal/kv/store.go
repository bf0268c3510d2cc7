package kv

import "context"

// Store is the storage-fabric surface the table and query layers build
// on. Two implementations exist:
//
//   - *Cluster: the standalone store — one single-copy region, in
//     process.
//   - *Router: the networked deployment — a cached region map routing
//     every operation to TCP region servers (see router.go).
//
// Every point operation takes the caller's context — there is no way
// to reach storage without one. The networked Router propagates the
// remaining budget to the region servers in the request frames (so
// abandoned work aborts server-side); the in-process Cluster honors
// cancellation at the operation boundary. ApplyCtx is the one write.
// Scans are the two package-level faces of the scan engine over any
// Store: ScanCollect (many ranges, in-worker collectors, parallel) and
// ScanRange (one range, key order, serial views).
//
// The unexported methods deliberately restrict implementations to this
// package: the scan engine is built on their contracts,
// which are too easy to get subtly wrong (resume semantics, views valid
// only during emit) to leave open.
type Store interface {
	// GetCtx fetches the value for key or ErrNotFound.
	GetCtx(ctx context.Context, key []byte) ([]byte, error)
	// ApplyCtx group-commits a WriteBatch of puts and deletes (batch
	// order kept within each region).
	ApplyCtx(ctx context.Context, b *WriteBatch) error
	// MultiGetCtx fetches many keys; the result is parallel to keys,
	// with nil entries for missing keys.
	MultiGetCtx(ctx context.Context, keys [][]byte) ([][]byte, error)
	// Flush persists all memtables.
	Flush() error
	// Compact fully compacts every region.
	Compact() error
	// DiskSize returns total on-disk bytes (including replica copies).
	DiskSize() int64
	// Regions returns the current region count (grows with splits).
	Regions() int
	// Metrics snapshots cumulative storage metrics.
	Metrics() Metrics
	// RegisterKeyFamily installs f for the keys with the given prefix
	// (a zero f unregisters). Implementations that cannot push it to the
	// storage nodes may ignore this: zone pruning and prefix summaries
	// are optimizations, never a correctness requirement.
	RegisterKeyFamily(prefix []byte, f KeyFamily)
	// Close releases the store.
	Close() error

	// scanTasks splits ranges into tasks of one region each.
	scanTasks(ranges []KeyRange) []scanTask
	// runScanTask streams one task's pairs in key order, handling
	// routing, retries and resume internally. The pairs passed to emit
	// are valid only during the call; emit returning false stops the
	// task without error.
	runScanTask(ctx context.Context, t scanTask, emit func(key, value []byte) bool) error
	// metrics exposes the live counter block for the scan pipeline.
	metrics() *Metrics
	// scanWidth is the useful scan parallelism: ScanCollect runs up to
	// that many workers and queues two batches per worker for the
	// consumer.
	scanWidth() int
}

// scanTask is one schedulable unit of a parallel scan: key sub-ranges
// served by one region. A *Cluster task is one range of the plan; a
// *Router task is ascending sub-ranges of one cached region, each
// starting at or after the previous one's end, shipped in one OpScan.
type scanTask struct {
	run []KeyRange
}
