package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"just/internal/jobs"
)

// ClusterOptions configure a Cluster.
type ClusterOptions struct {
	// Store-level options applied to every region.
	Options
	// SplitPoints pre-splits the key space, mirroring how GeoMesa's
	// shard prefixes spread writes across HBase regions. Points must be
	// sorted ascending; n points create n+1 regions. The regions are
	// fixed: reopen a directory with the split points it was created
	// with.
	SplitPoints [][]byte
	// ScrubInterval enables the background integrity scrubber: every
	// interval, all SSTable blocks are re-read and checksum-verified
	// (see Scrub). 0 (the default) disables the loop; Scrub can still
	// be run on demand.
	ScrubInterval time.Duration
}

// Cluster is the standalone storage fabric: a sorted key space cut at
// fixed split points into regions, each a single-copy LSM store. It
// stands in for the HBase cluster under GeoMesa in the paper's
// deployment; replication, failover and region splits run in the
// networked deployment (RegionNode behind Router).
type Cluster struct {
	dir   string
	opts  ClusterOptions
	cache *blockCache
	met   Metrics

	// regions is sorted by key range and never changes after open.
	regions []*clusterRegion
	closed  atomic.Bool

	// Zone-extractor registry: the table layer registers one extractor
	// per key prefix (table × index); flushes and compactions dispatch
	// through zoneFor to stamp per-block zone maps into SSTable indexes.
	zoneMu   sync.RWMutex
	zoneExts []zoneEntry

	// Scrub state (see scrub.go).
	scrubMu         sync.Mutex // serializes scrub passes
	scrubRunning    atomic.Bool
	scrubLastStart  atomic.Int64 // unix ms
	scrubLastDur    atomic.Int64 // ms
	scrubLastBlocks atomic.Int64
	scrubLastErr    error // last pass's corruption verdict (under scrubMu)

	// Maintenance scheduler: all background work (flush, compaction,
	// scrub) runs through it. ownJobs marks a scheduler the cluster
	// created (and closes); a shared one is the caller's.
	jobs     *jobs.Scheduler
	ownJobs  bool
	scrubJob string // registered scrub job name
}

// clusterRegion is one region of a Cluster: its key range, its store,
// and the slots bounding how many scan tasks run on it at once.
type clusterRegion struct {
	kr KeyRange
	*region
	slots chan struct{}
}

// paperServers is the region-server count of the paper's evaluation
// cluster. A Cluster shares the host's CPUs out as if among that many
// servers: each region gets max(2, NumCPU/paperServers) scan slots, and
// the scan engine's worker → consumer channel holds two batches per
// server.
const paperServers = 5

// Jobs exposes the cluster's maintenance scheduler (admin API, tests).
func (c *Cluster) Jobs() *jobs.Scheduler { return c.jobs }

// OpenCluster opens (or creates) a cluster rooted at dir.
func OpenCluster(dir string, opts ClusterOptions) (*Cluster, error) {
	if !ValidCodec(opts.Options.Codec) {
		return nil, fmt.Errorf("kv: unknown block codec %q (want none, gzip or lz4)", opts.Options.Codec)
	}
	// Region boundaries: (-inf, p0), [p0, p1), ... [pn, +inf).
	bounds := make([]KeyRange, 0, len(opts.SplitPoints)+1)
	var prev []byte
	for _, p := range opts.SplitPoints {
		if prev != nil && bytes.Compare(p, prev) <= 0 {
			return nil, fmt.Errorf("kv: split points not ascending")
		}
		bounds = append(bounds, KeyRange{Start: prev, End: p})
		prev = p
	}
	bounds = append(bounds, KeyRange{Start: prev})
	opts.Options = opts.Options.withDefaults()
	c := &Cluster{dir: dir, opts: opts, cache: newBlockCache(opts.BlockCacheBytes)}
	// Every region writes SSTables through the cluster's prefix
	// dispatcher, so extractors registered after open still cover data
	// flushed later (zone maps are stamped at flush/compaction time).
	c.opts.Options.ZoneExtractor = c.zoneFor
	// All maintenance runs through one scheduler; the regions opened
	// below inherit it through c.opts.Options.
	if c.jobs = opts.Options.Jobs; c.jobs == nil {
		c.jobs = jobs.New(jobs.Options{})
		c.ownJobs = true
		c.opts.Options.Jobs = c.jobs
	}
	slots := max(2, runtime.NumCPU()/paperServers)
	for i, kr := range bounds {
		r, err := openRegion(i, filepath.Join(dir, fmt.Sprintf("region-%04d", i)), c.opts.Options, c.cache, &c.met)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.regions = append(c.regions, &clusterRegion{kr: kr, region: r, slots: make(chan struct{}, slots)})
	}
	// The scrub job is always registered — with ScrubInterval 0 it has
	// no ticker and fires only on demand (Scrub → RunNow), which is how
	// concurrent scrub requests dedupe onto one pass.
	c.scrubJob = "scrub:" + dir
	if err := c.jobs.Register(jobs.Spec{
		Name:     c.scrubJob,
		Class:    jobs.ClassScrub,
		Interval: opts.ScrubInterval,
		Fn: func(ctx context.Context) error {
			err := c.scrubPass(ctx)
			if errors.Is(err, ErrClosed) {
				return nil // shutting down; not a scrub failure
			}
			return err
		},
	}); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// zoneEntry binds a key prefix to the zone extractor for its table/index.
type zoneEntry struct {
	prefix []byte
	fn     ZoneExtractor
}

// RegisterZoneExtractor installs fn as the zone extractor for keys
// starting with prefix, replacing any extractor previously registered
// under the same prefix. SSTables written afterwards (flush or
// compaction) carry per-block zone maps for those keys; existing
// tables are upgraded as compaction rewrites them. Passing a nil fn
// unregisters the prefix.
func (c *Cluster) RegisterZoneExtractor(prefix []byte, fn ZoneExtractor) {
	c.zoneMu.Lock()
	defer c.zoneMu.Unlock()
	for i := range c.zoneExts {
		if bytes.Equal(c.zoneExts[i].prefix, prefix) {
			if fn == nil {
				c.zoneExts = append(c.zoneExts[:i], c.zoneExts[i+1:]...)
			} else {
				c.zoneExts[i].fn = fn
			}
			return
		}
	}
	if fn == nil {
		return
	}
	c.zoneExts = append(c.zoneExts, zoneEntry{append([]byte(nil), prefix...), fn})
}

// zoneFor dispatches zone extraction by key prefix; keys under no
// registered prefix get no zone (their blocks are never skipped).
func (c *Cluster) zoneFor(key, value []byte) (int64, int64, bool) {
	c.zoneMu.RLock()
	defer c.zoneMu.RUnlock()
	for _, e := range c.zoneExts {
		if bytes.HasPrefix(key, e.prefix) {
			return e.fn(key, value)
		}
	}
	return 0, 0, false
}

// regionFor locates the region owning key (regions are sorted by range).
func (c *Cluster) regionFor(key []byte) *clusterRegion {
	// The first region whose End is nil or > key.
	i := sort.Search(len(c.regions), func(i int) bool {
		end := c.regions[i].kr.End
		return end == nil || bytes.Compare(key, end) < 0
	})
	return c.regions[i]
}

// ready is the prologue of every operation: an expired context or a
// closed cluster fails before any region is touched. The in-process
// cluster has no wire to propagate a deadline over; honoring
// cancellation at the operation boundary keeps SQL-layer deadlines
// effective — individual region operations are short, the loops above
// them are what a deadline needs to cut.
func (c *Cluster) ready(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.closed.Load() {
		return ErrClosed
	}
	return nil
}

// PutCtx stores key → value in the owning region.
func (c *Cluster) PutCtx(ctx context.Context, key, value []byte) error {
	if err := c.ready(ctx); err != nil {
		return err
	}
	return c.regionFor(key).Put(key, value)
}

// DeleteCtx removes key.
func (c *Cluster) DeleteCtx(ctx context.Context, key []byte) error {
	if err := c.ready(ctx); err != nil {
		return err
	}
	return c.regionFor(key).Delete(key)
}

// GetCtx fetches the value for key or ErrNotFound. A read that trips on
// a corrupt SSTable block latches the region's corrupt flag and returns
// the typed *ErrCorruptBlock.
func (c *Cluster) GetCtx(ctx context.Context, key []byte) ([]byte, error) {
	if err := c.ready(ctx); err != nil {
		return nil, err
	}
	r := c.regionFor(key)
	v, err := r.Get(key)
	r.noteCorruption(err)
	return v, err
}

// Flush persists all memtables; call after bulk loads and before
// measuring on-disk size. Regions flush in parallel (their SSTables are
// independent files).
func (c *Cluster) Flush() error {
	return eachRegion(c.regions, func(r *clusterRegion) error { return r.flush() })
}

// Compact fully compacts every region, in parallel across regions.
func (c *Cluster) Compact() error {
	return eachRegion(c.regions, func(r *clusterRegion) error {
		err := r.compact()
		r.noteCorruption(err)
		return err
	})
}

// eachRegion runs fn over every region concurrently and returns the
// first error (by region order, for determinism).
func eachRegion(rs []*clusterRegion, fn func(*clusterRegion) error) error {
	if len(rs) == 1 {
		return fn(rs[0])
	}
	errs := make([]error, len(rs))
	var wg sync.WaitGroup
	for i, r := range rs {
		wg.Add(1)
		go func(i int, r *clusterRegion) {
			defer wg.Done()
			errs[i] = fn(r)
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ApplyCtx group-commits a WriteBatch: mutations are grouped by owning
// region and each region applies its group under one lock acquisition —
// all WAL records appended in one buffered sequence with a single sync,
// all memtable inserts under that acquisition — with regions running in
// parallel. Mutations keep their batch order within each region (later
// entries win on duplicate keys). It is the bulk write path behind
// Table.InsertBatchCtx.
func (c *Cluster) ApplyCtx(ctx context.Context, b *WriteBatch) error {
	if err := c.ready(ctx); err != nil {
		return err
	}
	if b == nil || len(b.muts) == 0 {
		return nil
	}
	// Fast path: a one-region cluster applies the batch as-is with no
	// grouping allocation.
	if len(c.regions) == 1 {
		return c.regions[0].applyBatch(b.muts)
	}
	groups := make(map[*clusterRegion][]mutation)
	var order []*clusterRegion
	for _, m := range b.muts {
		r := c.regionFor(m.key)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], m)
	}
	return eachRegion(order, func(r *clusterRegion) error { return r.applyBatch(groups[r]) })
}

// MultiGetCtx fetches many keys at once: keys are grouped by owning
// region and each region probes its group against one consistent
// snapshot (single lock acquisition), with regions running in parallel.
// The result is parallel to keys; missing keys yield nil entries.
func (c *Cluster) MultiGetCtx(ctx context.Context, keys [][]byte) ([][]byte, error) {
	if err := c.ready(ctx); err != nil {
		return nil, err
	}
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	groups := make(map[*clusterRegion][]int)
	var order []*clusterRegion
	for i, k := range keys {
		r := c.regionFor(k)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], i)
	}
	err := eachRegion(order, func(r *clusterRegion) error {
		err := r.getBatch(groups[r], keys, out)
		r.noteCorruption(err)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeleteBatchCtx removes many keys at once via the group-commit path:
// one lock acquisition and one WAL sync per region, regions in parallel.
// It is the bulk path behind DROP TABLE's data purge.
func (c *Cluster) DeleteBatchCtx(ctx context.Context, keys [][]byte) error {
	var b WriteBatch
	for _, k := range keys {
		b.Delete(k)
	}
	return c.ApplyCtx(ctx, &b)
}

// ScanRange streams the pairs of one range in key order; emit returning
// false stops the scan early. Tasks are visited serially in region
// (= key) order, which is what keeps the stream sorted.
func ScanRange(ctx context.Context, s Store, kr KeyRange, emit func(key, value []byte) bool) error {
	for _, t := range s.scanTasks([]KeyRange{kr}) {
		stop := false
		err := s.runScanTask(ctx, t, func(k, v []byte) bool {
			stop = !emit(k, v)
			return !stop
		})
		if err != nil || stop {
			return err
		}
	}
	return nil
}

// scanTasks splits ranges into one task per (region × range).
func (c *Cluster) scanTasks(ranges []KeyRange) []scanTask {
	tasks := make([]scanTask, 0, len(ranges))
	for _, kr := range ranges {
		for _, r := range c.regions {
			if sub, ok := r.kr.Intersect(kr); ok {
				tasks = append(tasks, scanTask{kr: sub, r: r})
			}
		}
	}
	return tasks
}

// runScanTask streams one task's pairs once a scan slot of its region is
// free. A task still queued for a slot when ctx is canceled never
// starts, so a canceled query does not hold the region's scan
// concurrency hostage behind slow neighbors.
func (c *Cluster) runScanTask(ctx context.Context, t scanTask, emit func(key, value []byte) bool) error {
	select {
	case t.r.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-t.r.slots }()
	it := t.r.Scan(t.kr)
	defer it.Close()
	for it.Next() {
		if !emit(it.Key(), it.Value()) {
			return nil
		}
	}
	err := it.Err()
	t.r.noteCorruption(err)
	return err
}

func (c *Cluster) metrics() *Metrics { return &c.met }

func (c *Cluster) scanWidth() int { return paperServers }

// ScanRanges runs one scan task per (region × range) in parallel across
// regions — the paper's "trigger SCAN operations over the
// underlying key-value data store in parallel". Results are delivered to
// emit serially, in arbitrary inter-range order; emit returning false
// cancels outstanding tasks. Pairs passed to emit are valid only during
// the call.
//
// ScanRanges ships whole pairs to the consumer and therefore copies
// every key and value; callers that can decode or filter per pair
// should use ScanRangesFunc or ScanCollect, which run that stage inside
// the scan workers and skip the copies entirely.
func ScanRanges(ctx context.Context, s Store, ranges []KeyRange, emit func(key, value []byte) bool) error {
	return ScanRangesFunc(ctx, s, ranges, func(k, v []byte) (Pair, bool, error) {
		return Pair{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), v...),
		}, true, nil
	}, func(p Pair) bool { return emit(p.Key, p.Value) })
}

// scanBatchSize is ScanRangesFunc's worker→consumer hand-off granularity.
const scanBatchSize = 512

// maxSerialScanTasks bounds the plan size below which goroutine fan-out
// costs more than it saves.
const maxSerialScanTasks = 4

// ScanRangesFunc is the per-pair face of the scan engine (scanCollect):
// each task applies process to every pair *inside the worker*, and only
// the values process keeps are batched (scanBatchSize at a time) and
// delivered to emit — serially, in arbitrary inter-range order — so
// filtered-out pairs are never copied out of the storage layer.
// ScanKept counts the values delivered, ScanBatches the batches they
// crossed the worker → consumer boundary in.
//
// The key/value slices passed to process are valid only during the
// call; process must copy anything it retains. Errors, emit returning
// false and ctx cancellation behave as documented on scanCollect.
func ScanRangesFunc[T any](ctx context.Context, s Store, ranges []KeyRange, process func(key, value []byte) (T, bool, error), emit func(T) bool) error {
	met := s.metrics()
	// Batch slices are pooled: the consumer returns each batch after
	// draining it, so a steady scan recycles ~one batch per in-flight
	// task instead of allocating one per scanBatchSize pairs.
	pool := &sync.Pool{New: func() any {
		s := make([]T, 0, scanBatchSize)
		return &s
	}}
	newTask := func() TaskCollector[[]T] {
		batch := *pool.Get().(*[]T)
		return TaskCollector[[]T]{
			Add: func(k, v []byte) ([]T, bool, error) {
				out, keep, err := process(k, v)
				if err != nil || !keep {
					return nil, false, err
				}
				batch = append(batch, out)
				if len(batch) < scanBatchSize {
					return nil, false, nil
				}
				full := batch
				batch = *pool.Get().(*[]T)
				return full, true, nil
			},
			Finish: func() ([]T, bool, error) { return batch, len(batch) > 0, nil },
		}
	}
	return scanCollect(ctx, s, ranges, newTask, func(batch []T) bool {
		atomic.AddInt64(&met.ScanKept, int64(len(batch)))
		keep := true
		for _, x := range batch {
			if keep = emit(x); !keep {
				break
			}
		}
		clear(batch) // drop references so pooled slices don't pin rows
		batch = batch[:0]
		pool.Put(&batch)
		return keep
	}, &met.ScanBatches)
}

// TaskCollector accumulates the pairs of one scan task into batches.
// ScanCollect builds one per task, so a collector can keep mutable
// per-task state (column vectors being filled) without synchronization.
type TaskCollector[B any] struct {
	// Add consumes one pair (slices valid only during the call; copy
	// anything retained) and returns a completed batch when one fills.
	Add func(key, value []byte) (B, bool, error)
	// Finish flushes the final partial batch, if any. Called once after
	// the task's last pair; not called if the task failed or was
	// cancelled mid-stream.
	Finish func() (B, bool, error)
}

// ScanCollect is the batch face of the scan engine (scanCollect): each
// (region × range) task owns a TaskCollector that folds pairs into
// batches inside the scan worker, and whole batches (not pairs) cross
// the worker → consumer boundary. Every batch delivered increments the
// BatchesDecoded metric.
func ScanCollect[B any](ctx context.Context, s Store, ranges []KeyRange, newTask func() TaskCollector[B], emit func(B) bool) error {
	return scanCollect(ctx, s, ranges, newTask, emit, &s.metrics().BatchesDecoded)
}

// scanCollect is the one scan engine. One task per (region × range)
// runs in a scan slot of its region and feeds its own collector, so
// decode and filter work parallelizes across regions and slots instead
// of serializing on the consumer. Batches are delivered to emit
// serially, in arbitrary inter-task order, and counted into *batches.
//
// Plans of at most maxSerialScanTasks tasks run inline, one task after
// the other; larger plans fan out one goroutine per task (queued tasks
// wait for a scan slot inside runScanTask). emit returning false
// cancels outstanding tasks and drains the pipeline before returning.
// Canceling ctx (client disconnect, deadline, admin kill) aborts
// promptly — workers poll the cancel flag per pair, queued tasks never
// take a slot — and the raw context error is returned (callers lift it
// into the typed lifecycle errors). The first collector or iterator
// error wins, even when emit cancelled the scan concurrently.
func scanCollect[B any](ctx context.Context, s Store, ranges []KeyRange, newTask func() TaskCollector[B], emit func(B) bool, batches *int64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	tasks := s.scanTasks(ranges)
	if len(tasks) == 0 {
		return nil
	}
	met := s.metrics()
	atomic.AddInt64(&met.ScanTasks, int64(len(tasks)))
	serial := len(tasks) <= maxSerialScanTasks

	var (
		cancelled atomic.Bool
		errMu     sync.Mutex
		firstErr  error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancelled.Store(true)
	}
	// A canceled context flips the shared cancel flag every worker
	// already polls per pair, so teardown is prompt even mid-iterator.
	stopWatch := context.AfterFunc(ctx, func() { fail(ctx.Err()) })
	defer stopWatch()

	// deliver hands one batch to the consumer and reports whether the
	// scan goes on.
	var delivered int64
	deliver := func(b B) bool {
		delivered++
		if cancelled.Load() {
			return false
		}
		if !emit(b) {
			cancelled.Store(true)
			return false
		}
		return true
	}
	// Workers reach the consumer through out: a channel send when fanned
	// out; the serial path is its own consumer and delivers in place (so
	// emit returning false stops its iterator at once).
	out := deliver
	var ch chan B
	if !serial {
		ch = make(chan B, s.scanWidth()*2)
		out = func(b B) bool { ch <- b; return true }
	}
	runTask := func(t scanTask) {
		col := newTask()
		var scanned int64
		defer func() { atomic.AddInt64(&met.ScanPairs, scanned) }()
		var stageErr error
		// Slot accounting, routing and resume all live inside
		// runScanTask; the engine only collects.
		err := s.runScanTask(ctx, t, func(k, v []byte) bool {
			if cancelled.Load() {
				return false
			}
			scanned++
			b, full, perr := col.Add(k, v)
			if perr != nil {
				stageErr = perr
				return false
			}
			return !full || out(b)
		})
		switch {
		case stageErr != nil:
			fail(stageErr)
		case err != nil:
			fail(err)
		case cancelled.Load():
			// Stopped mid-stream: the collector's partial batch is dropped.
		default:
			if b, ok, err := col.Finish(); err != nil {
				fail(err)
			} else if ok {
				out(b)
			}
		}
	}

	if serial {
		for _, t := range tasks {
			if cancelled.Load() {
				break
			}
			runTask(t)
		}
	} else {
		var wg sync.WaitGroup
		for _, t := range tasks {
			wg.Add(1)
			go func(t scanTask) {
				defer wg.Done()
				runTask(t)
			}(t)
		}
		go func() {
			wg.Wait()
			close(ch)
		}()
		for b := range ch {
			deliver(b)
		}
	}
	atomic.AddInt64(batches, delivered)
	// Every worker has finished (the channel closes only after wg.Wait),
	// so all fail() calls happened-before this point: the first worker
	// error is reported deterministically, even when emit cancelled.
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}

// DiskSize returns the total on-disk bytes across all regions.
func (c *Cluster) DiskSize() int64 {
	var total int64
	for _, r := range c.regions {
		total += r.DiskSize()
	}
	return total
}

// Regions returns the number of regions (fixed at open).
func (c *Cluster) Regions() int { return len(c.regions) }

// Metrics returns a snapshot of cumulative storage metrics (plus the
// instantaneous flush-queue depth gauge).
func (c *Cluster) Metrics() Metrics {
	m := c.met.snapshot()
	for _, r := range c.regions {
		m.FlushQueueDepth += int64(r.immCount())
	}
	return m
}

// Close shuts the cluster down: the scrub job first (a pass reads every
// store), then each region, which drains its background flusher and
// closes its WAL and SSTables — so a shutdown mid-ingest can never race
// an in-flight flush.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	if c.scrubJob != "" {
		c.jobs.Deregister(c.scrubJob)
	}
	var first error
	for _, r := range c.regions {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	// The scheduler goes last: region Close drains flushers, which still
	// route their final flushes through it.
	if c.ownJobs {
		c.jobs.Close()
	}
	return first
}
