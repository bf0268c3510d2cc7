// Package kv implements the distributed NoSQL storage substrate of JUST.
//
// The paper deploys JUST on Apache HBase; this package supplies the HBase
// semantics the index layer relies on — a sorted key space with random
// PUT/DELETE, point GET and range SCAN — as a from-scratch LSM engine:
//
//   - a write-ahead log with CRC-checked records,
//   - a skiplist memtable,
//   - immutable SSTables with 4 KiB data blocks, a block index, a bloom
//     filter, and optional per-block gzip compression,
//   - size-tiered compaction,
//   - an LRU block cache (HBase's block cache, which the paper works
//     around in its evaluation methodology),
//   - range-partitioned regions with parallel multi-range scans (the
//     paper's "trigger SCAN operations ... in parallel"), in one process
//     (Cluster) or on networked region servers behind a Router.
package kv

import (
	"bytes"
	"errors"
	"reflect"
	"sync/atomic"

	"just/internal/jobs"
)

// Errors returned by the store.
var (
	// ErrNotFound reports a missing key on Get.
	ErrNotFound = errors.New("kv: key not found")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("kv: store closed")
	// ErrCorrupt reports an unreadable on-disk structure.
	ErrCorrupt = errors.New("kv: corrupt data")
	// ErrUnavailable reports that every region server hosting a copy of
	// the requested region is down.
	ErrUnavailable = errors.New("kv: region unavailable: all hosting servers down")
	// ErrStaleRegion reports an operation routed with an outdated region
	// map: the target node no longer serves the region at the expected
	// epoch (it split, merged, moved or was retired). Callers refresh
	// their region map and retry; the Router does so transparently.
	ErrStaleRegion = errors.New("kv: stale region map")
	// ErrDiskPressure reports a write refused because free disk space is
	// below the maintenance scheduler's threshold: the flush queue is
	// full and the flusher is parked until space recovers, so instead of
	// stalling (or latching a permanent flush error) the write path
	// surfaces this typed, retryable condition. It aliases the scheduler
	// package's sentinel so errors.Is matches across layers.
	ErrDiskPressure = jobs.ErrDiskPressure
)

// kind tags an entry as a live value or a deletion tombstone.
type kind uint8

const (
	kindPut kind = iota + 1
	kindDelete
)

// KeyRange is a half-open scan interval [Start, End). A nil Start means
// the beginning of the key space; a nil End means the end.
//
// A range may additionally carry a zone interval: when Zoned is set,
// the scan only needs pairs whose zone attribute (record time, as
// written into SSTable zone maps by the registered ZoneExtractor)
// intersects [ZMin, ZMax]. The zone is a pruning hint, not a filter:
// scans may still return pairs outside it (blocks without zone maps,
// memtable entries), and the consumer re-filters — but blocks provably
// outside it are skipped before disk read and decompression.
type KeyRange struct {
	Start, End []byte

	Zoned      bool
	ZMin, ZMax int64
}

// Contains reports whether key k falls inside r.
func (r KeyRange) Contains(k []byte) bool {
	if r.Start != nil && bytes.Compare(k, r.Start) < 0 {
		return false
	}
	if r.End != nil && bytes.Compare(k, r.End) >= 0 {
		return false
	}
	return true
}

// Overlaps reports whether two ranges share any key.
func (r KeyRange) Overlaps(o KeyRange) bool {
	if r.End != nil && o.Start != nil && bytes.Compare(r.End, o.Start) <= 0 {
		return false
	}
	if o.End != nil && r.Start != nil && bytes.Compare(o.End, r.Start) <= 0 {
		return false
	}
	return true
}

// Intersect clips r to o. Returns false if the ranges are disjoint.
func (r KeyRange) Intersect(o KeyRange) (KeyRange, bool) {
	if !r.Overlaps(o) {
		return KeyRange{}, false
	}
	out := r
	if o.Start != nil && (out.Start == nil || bytes.Compare(o.Start, out.Start) > 0) {
		out.Start = o.Start
	}
	if o.End != nil && (out.End == nil || bytes.Compare(o.End, out.End) < 0) {
		out.End = o.End
	}
	// Zone hints intersect too: a pair is needed only if it is inside
	// both zones, so the clipped range carries the tighter interval.
	if o.Zoned {
		if !out.Zoned {
			out.Zoned, out.ZMin, out.ZMax = true, o.ZMin, o.ZMax
		} else {
			if o.ZMin > out.ZMin {
				out.ZMin = o.ZMin
			}
			if o.ZMax < out.ZMax {
				out.ZMax = o.ZMax
			}
		}
	}
	return out, true
}

// Iterator walks key-value pairs in ascending key order.
type Iterator interface {
	// Next advances to the next pair; it must be called before the first
	// Key/Value access. It returns false when exhausted or on error.
	Next() bool
	// Key returns the current key. The slice is only valid until the
	// next call to Next.
	Key() []byte
	// Value returns the current value, valid until the next call to Next.
	Value() []byte
	// Err returns the first error encountered, if any.
	Err() error
	// Close releases resources held by the iterator.
	Close() error
}

// Metrics counts the physical work a store performed; the benchmark
// harness reads them to report storage sizes and IO volumes.
type Metrics struct {
	BytesWritten     int64 `json:"bytes_written"` // bytes appended to WAL + SSTables
	BytesRead        int64 `json:"bytes_read"`    // bytes read from SSTables (compressed size)
	BlocksRead       int64 `json:"blocks_read"`   // data blocks fetched from disk
	BlockCacheHits   int64 `json:"block_cache_hits"`
	BlocksTouched    int64 `json:"blocks_touched"` // cached block loads, hit or miss: scans and point reads
	BlockCacheMisses int64 `json:"block_cache_misses"`
	BloomNegatives   int64 `json:"bloom_negatives"` // gets short-circuited by the bloom filter
	Flushes          int64 `json:"flushes"`
	Compactions      int64 `json:"compactions"`

	// Scan engine counters: ScanTasks tasks run and ScanPairs pairs
	// handed to the scan's consumer stage, whichever face scanned.
	ScanTasks int64 `json:"scan_tasks"`
	ScanPairs int64 `json:"scan_pairs"`

	// Columnar scan counters: BlocksSkipped data blocks pruned by their
	// SSTable zone map before disk read / decompression; BatchesDecoded
	// batches ScanCollect delivered (the column batches of table scans).
	BlocksSkipped  int64 `json:"blocks_skipped"`
	BatchesDecoded int64 `json:"batches_decoded"`

	// TablesSkipped table × range seeks a prefix summary proved empty;
	// Tables, a gauge, the SSTables held.
	TablesSkipped int64 `json:"tables_skipped"`
	Tables        int64 `json:"tables"`

	// Write path counters (Cluster.ApplyCtx / the background flusher):
	// GroupCommits region-level batch applies covering
	// GroupCommitRecords mutations (the ratio is the group-commit batch
	// size); WALSyncs fsyncs at group-commit boundaries covering
	// WALSyncBytes appended bytes (the ratio is WAL bytes per sync);
	// WriteStalls writer stalls totalling WriteStallNanos waiting on a
	// full flush queue. FlushQueueDepth is a gauge — frozen memtables
	// awaiting background flush at snapshot time, summed over regions.
	GroupCommits       int64 `json:"group_commits"`
	GroupCommitRecords int64 `json:"group_commit_records"`
	WALSyncs           int64 `json:"wal_syncs"`
	WALSyncBytes       int64 `json:"wal_sync_bytes"`
	WriteStalls        int64 `json:"write_stalls"`
	WriteStallNanos    int64 `json:"write_stall_nanos"`
	FlushQueueDepth    int64 `json:"flush_queue_depth"`

	// Integrity counters (SSTable checksums and scrub):
	// CorruptionsDetected persistent checksum mismatches (or undecodable
	// blocks) found at read or scrub time; ReadRetries checksum-failed
	// reads that were re-read (a retry that then passes was a transient
	// fault, not corruption); BlocksScrubbed data blocks verified by the
	// scrubber; ScrubRuns completed full-cluster scrub passes;
	// OrphansRemoved leftover temp/unreferenced SSTable files deleted at
	// region open.
	CorruptionsDetected int64 `json:"corruptions_detected"`
	ReadRetries         int64 `json:"read_retries"`
	BlocksScrubbed      int64 `json:"blocks_scrubbed"`
	ScrubRuns           int64 `json:"scrub_runs"`
	OrphansRemoved      int64 `json:"orphans_removed"`

	// Topology counters (networked cluster): Failovers region primaries
	// replaced by a promoted replica after the primary's server stopped
	// answering; RegionSplits completed region splits (size triggered
	// or admin), RegionMerges adjacent cold regions merged,
	// RegionMoves region leaderships moved by the rebalancer
	// (replicate → promote → retire); StaleMapRefreshes region-map
	// refreshes forced by ErrStaleRegion responses; RPCRetries operations
	// re-sent after a stale map or transport failure; RPCBytesIn /
	// RPCBytesOut wire traffic through the rpc client and server.
	Failovers         int64 `json:"failovers"`
	RegionSplits      int64 `json:"region_splits"`
	RegionMerges      int64 `json:"region_merges"`
	RegionMoves       int64 `json:"region_moves"`
	StaleMapRefreshes int64 `json:"stale_map_refreshes"`
	RPCRetries        int64 `json:"rpc_retries"`
	RPCBytesIn        int64 `json:"rpc_bytes_in"`
	RPCBytesOut       int64 `json:"rpc_bytes_out"`

	// Resilience counters (networked cluster): RPCHedges hedge requests
	// fired for slow idempotent reads, of which RPCHedgeWins returned
	// before the primary attempt; BreakerOpens circuit-breaker
	// closed→open transitions, BreakerFastFails requests refused without
	// a dial because the peer's breaker was open; RPCRedials transparent
	// retries after a stale pooled connection. DeadlineAborts counts
	// region-server requests abandoned because the caller's propagated
	// deadline expired; ScanCancels counts server-side scans torn down
	// early by a client cancel frame or disconnect.
	RPCHedges        int64 `json:"rpc_hedges"`
	RPCHedgeWins     int64 `json:"rpc_hedge_wins"`
	BreakerOpens     int64 `json:"breaker_opens"`
	BreakerFastFails int64 `json:"breaker_fast_fails"`
	RPCRedials       int64 `json:"rpc_redials"`
	DeadlineAborts   int64 `json:"deadline_aborts"`
	ScanCancels      int64 `json:"scan_cancels"`

	// Maintenance counters (the jobs scheduler): CompactionsDeferred
	// background compaction checks that did not run to completion —
	// shed under disk pressure or failed after retries (the region
	// keeps serving with more tables; the next flush re-triggers the
	// check).
	CompactionsDeferred int64 `json:"compactions_deferred"`
}

// snapshot copies m with atomic loads, field by field. Every Metrics
// field is an int64 counter updated with atomic adds from many
// goroutines, so a plain struct copy would race; walking the fields
// with reflection keeps this (and add) correct as counters are added.
func (m *Metrics) snapshot() Metrics {
	var out Metrics
	src := reflect.ValueOf(m).Elem()
	dst := reflect.ValueOf(&out).Elem()
	for i := 0; i < src.NumField(); i++ {
		dst.Field(i).SetInt(atomic.LoadInt64(src.Field(i).Addr().Interface().(*int64)))
	}
	return out
}

// add accumulates o into m (plain adds; both sides are local
// snapshots). Used to aggregate per-node metrics cluster-wide.
func (m *Metrics) add(o Metrics) {
	dst := reflect.ValueOf(m).Elem()
	src := reflect.ValueOf(&o).Elem()
	for i := 0; i < dst.NumField(); i++ {
		f := dst.Field(i)
		f.SetInt(f.Int() + src.Field(i).Int())
	}
}
