package kv

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"just/internal/jobs"
)

// ClusterOptions configure a Cluster.
type ClusterOptions struct {
	// Store-level options applied to the region.
	Options
	// ScrubInterval enables the background integrity scrubber: every
	// interval, all SSTable blocks are re-read and checksum-verified
	// (see Scrub). 0 (the default) disables the loop; Scrub can still
	// be run on demand.
	ScrubInterval time.Duration
}

// Cluster is the standalone storage fabric: one single-copy LSM region
// over the whole key space, in process. It stands in for the HBase
// cluster under GeoMesa in the paper's deployment; replication,
// failover and region splits run in the networked deployment
// (RegionNode behind Router).
type Cluster struct {
	met Metrics

	r      *region // the one region
	closed atomic.Bool

	// fams are the key families the table layer registered, one per
	// table × index prefix.
	fams registry

	// Scrub state (see scrub.go).
	scrubMu         sync.Mutex // held by a pass; Close takes it to wait one out
	scrubKey        string     // DoShared key of this cluster's passes
	scrubRunning    atomic.Bool
	scrubLastStart  atomic.Int64 // unix ms
	scrubLastDur    atomic.Int64 // ms
	scrubLastBlocks atomic.Int64

	// Maintenance scheduler: flush, compaction and scrub run through
	// it. ownJobs marks a scheduler the cluster created (and closes); a
	// shared one is the caller's.
	jobs    *jobs.Scheduler
	ownJobs bool

	stop chan struct{} // closed by Close; ends scrubLoop
	wg   sync.WaitGroup
}

// paperServers is the region-server count of the paper's evaluation
// cluster. A Cluster shares the host's CPUs out as if among that many
// servers: a ScanCollect runs max(2, NumCPU/paperServers) workers, each
// with two batches of room in the worker → consumer channel. Nothing
// else bounds a region's scans: across statements, as on a region
// server, admission does. Each task's scan takes a recycled merge from
// its region and hands it back when the task ends (region.snapshot,
// mergeIter.recycle).
const paperServers = 5

// OpenCluster opens (or creates) a cluster rooted at dir. The region
// lives in dir/region-0000.
func OpenCluster(dir string, opts ClusterOptions) (*Cluster, error) {
	if !ValidCodec(opts.Options.Codec) {
		return nil, fmt.Errorf("kv: unknown block codec %q (want none, gzip or lz4)", opts.Options.Codec)
	}
	ropts := opts.Options.withDefaults()
	c := &Cluster{
		scrubKey: "scrub:" + dir,
		stop:     make(chan struct{}),
	}
	// The region builds SSTables from the cluster's registry, so families
	// registered after open still cover data flushed later.
	ropts.families = &c.fams
	// All maintenance runs through one scheduler; the region opened
	// below inherits it through ropts.
	if c.jobs = ropts.Jobs; c.jobs == nil {
		c.jobs = jobs.New(jobs.Options{})
		c.ownJobs = true
		ropts.Jobs = c.jobs
	}
	r, err := openRegion(0, filepath.Join(dir, "region-0000"), ropts, newBlockCache(ropts.BlockCacheBytes), &c.met)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.r = r
	if opts.ScrubInterval > 0 {
		c.wg.Add(1)
		go c.scrubLoop(opts.ScrubInterval)
	}
	return c, nil
}

// KeyFamily is what the table layer registers for the keys under one
// prefix (a table's index); SSTables built while it is registered use it.
type KeyFamily struct {
	// Zone derives each pair's record-time zone for the block zone maps.
	Zone ZoneExtractor
	// PrefixLen, when longer than the prefix, is the length of the
	// table ∥ index ∥ shard ∥ period prefix each SSTable summarises.
	PrefixLen int

	prefix []byte // the prefix it is registered under
}

// registry holds a store's key families. register swaps in a new slice,
// so a table build reads one snapshot of them with no lock.
type registry struct {
	mu   sync.Mutex
	fams atomic.Pointer[[]KeyFamily]
}

// register replaces the family under prefix with f; a zero f removes it.
func (g *registry) register(prefix []byte, f KeyFamily) {
	g.mu.Lock()
	defer g.mu.Unlock()
	fams := slices.DeleteFunc(slices.Clone(g.snapshot()), func(e KeyFamily) bool { return bytes.Equal(e.prefix, prefix) })
	if f.Zone != nil || f.PrefixLen > 0 {
		f.prefix = bytes.Clone(prefix)
		fams = append(fams, f)
	}
	g.fams.Store(&fams)
}

// snapshot returns the families registered now; none for a nil registry.
func (g *registry) snapshot() []KeyFamily {
	if g == nil || g.fams.Load() == nil {
		return nil
	}
	return *g.fams.Load()
}

// RegisterKeyFamily installs f for the keys starting with prefix (a zero
// f unregisters it); each flush and merge reads the families once.
func (c *Cluster) RegisterKeyFamily(prefix []byte, f KeyFamily) { c.fams.register(prefix, f) }

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

// GetCtx fetches the value for key or ErrNotFound. A read that trips on
// a corrupt SSTable block latches the region's corrupt flag and returns
// the typed *ErrCorruptBlock.
func (c *Cluster) GetCtx(ctx context.Context, key []byte) ([]byte, error) {
	if err := c.ready(ctx); err != nil {
		return nil, err
	}
	v, err := c.r.Get(key)
	c.r.noteCorruption(err)
	return v, err
}

// Flush persists the region's memtables; call after bulk loads and
// before measuring on-disk size.
func (c *Cluster) Flush() error { return c.r.flush() }

// Compact fully compacts the region.
func (c *Cluster) Compact() error {
	err := c.r.compact()
	c.r.noteCorruption(err)
	return err
}

// ApplyCtx group-commits a WriteBatch, the store's one write: the
// region appends every record to the WAL with a single sync, then
// inserts the whole batch into the memtable at once (see
// region.applyBatch). Mutations keep their batch order (later entries
// win on duplicate keys).
func (c *Cluster) ApplyCtx(ctx context.Context, b *WriteBatch) error {
	if err := c.ready(ctx); err != nil {
		return err
	}
	if b == nil || len(b.muts) == 0 {
		return nil
	}
	return c.r.applyBatch(b.muts)
}

// MultiGetCtx fetches many keys against one consistent snapshot of the
// region, in which a concurrent batch is whole or absent. The result is
// parallel to keys; missing keys yield nil entries.
func (c *Cluster) MultiGetCtx(ctx context.Context, keys [][]byte) ([][]byte, error) {
	if err := c.ready(ctx); err != nil {
		return nil, err
	}
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	err := c.r.getBatch(keys, out)
	c.r.noteCorruption(err)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanRange is the serial face of the scan engine: it streams the pairs
// of one range in key order, visiting the range's tasks one after the
// other in region (= key) order, which is what keeps the stream sorted.
// The pairs passed to emit are views, valid only during the call; emit
// returning false stops the scan early. Canceling ctx stops the scan at
// the next pair and returns the context error. Tasks and pairs count
// into ScanTasks and ScanPairs as on the parallel face.
func ScanRange(ctx context.Context, s Store, kr KeyRange, emit func(key, value []byte) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var cancelled atomic.Bool
	defer context.AfterFunc(ctx, func() { cancelled.Store(true) })()
	met := s.metrics()
	tasks := s.scanTasks([]KeyRange{kr})
	atomic.AddInt64(&met.ScanTasks, int64(len(tasks)))
	var scanned int64
	defer func() { atomic.AddInt64(&met.ScanPairs, scanned) }()
	for _, t := range tasks {
		stop := false
		err := s.runScanTask(ctx, t, func(k, v []byte) bool {
			if cancelled.Load() {
				return false
			}
			scanned++
			stop = !emit(k, v)
			return !stop
		})
		switch {
		case err != nil:
			return err
		case cancelled.Load():
			return ctx.Err()
		case stop:
			return nil
		}
	}
	return nil
}

// scanTasks makes one task per range: the one region serves them all.
func (c *Cluster) scanTasks(ranges []KeyRange) []scanTask {
	tasks := make([]scanTask, len(ranges))
	for i := range ranges {
		tasks[i].run = ranges[i : i+1 : i+1]
	}
	return tasks
}

// runScanTask streams one task's pairs. A task whose ctx is canceled
// before it starts never opens a snapshot.
func (c *Cluster) runScanTask(ctx context.Context, t scanTask, emit func(key, value []byte) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	it := c.r.snapshot()
	defer it.recycle()
	for _, kr := range t.run {
		it.seek(kr)
		for it.Next() {
			if !emit(it.Key(), it.Value()) {
				return nil
			}
		}
	}
	err := it.Err()
	c.r.noteCorruption(err)
	return err
}

func (c *Cluster) metrics() *Metrics { return &c.met }

func (c *Cluster) scanWidth() int { return max(2, runtime.NumCPU()/paperServers) }

// maxSerialScanTasks bounds the plan size below which starting scan
// workers costs more than it saves: smaller plans run the worker loop
// on the caller's goroutine, as does any plan a single worker serves.
const maxSerialScanTasks = 4

// TaskCollector accumulates the pairs of a scan worker's tasks into
// batches. ScanCollect builds one per worker and feeds it every pair of
// every task that worker runs, one task after the other, so a collector
// can keep mutable state (column vectors being filled) without
// synchronization, and a partly filled batch carries over from one task
// to the next.
type TaskCollector[B any] struct {
	// Add consumes one pair (slices valid only during the call; copy
	// anything retained) and returns a completed batch when one fills.
	Add func(key, value []byte) (B, bool, error)
	// Finish flushes the final partial batch, if any. Called once, after
	// the worker's last task; not called if a task failed or the scan
	// was cancelled, which drops the partial batch.
	Finish func() (B, bool, error)
}

// ScanCollect is the parallel face of the scan engine: it scans many
// ranges, split into tasks (a range, or a run of ranges, served by one
// region), on min(tasks, scanWidth) workers. Each worker takes the next
// task from a shared cursor, runs it on its region and folds its pairs
// into batches through the worker's TaskCollector. Decode and filter
// work therefore parallelizes across workers, no goroutine is started
// per task, and whole batches (not pairs) cross the worker → consumer
// boundary. Batches reach emit serially, in arbitrary inter-task order;
// those emit receives count into BatchesDecoded.
//
// Plans of at most maxSerialScanTasks tasks, and plans one worker
// serves, run the worker loop inline, on the caller's goroutine. emit
// returning false cancels outstanding tasks and drains the pipeline
// before returning. Canceling ctx (client disconnect, deadline, admin
// kill) aborts promptly — workers poll the cancel flag per pair, queued
// tasks never start — and the raw context error is returned (callers
// lift it into the typed lifecycle errors). The first collector or
// iterator error wins, even when emit cancelled the scan concurrently.
func ScanCollect[B any](ctx context.Context, s Store, ranges []KeyRange, newTask func() TaskCollector[B], emit func(B) bool) error {
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
	workers := min(len(tasks), s.scanWidth())
	serial := workers == 1 || len(tasks) <= maxSerialScanTasks

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
		if cancelled.Load() {
			return false
		}
		delivered++
		if !emit(b) {
			cancelled.Store(true)
			return false
		}
		return true
	}
	// work is one worker: it runs tasks from the shared cursor until none
	// is left or the scan is cancelled, and reaches the consumer through
	// out — a channel send when fanned out; the serial path is its own
	// consumer and delivers in place (so emit returning false stops its
	// iterator at once).
	var next atomic.Int64
	work := func(out func(B) bool) {
		col := newTask()
		var scanned int64
		defer func() { atomic.AddInt64(&met.ScanPairs, scanned) }()
		// One emit per worker: a closure per task costs an allocation
		// per range. A stage error ends the loop (fail cancels).
		var stageErr error
		add := func(k, v []byte) bool {
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
		}
		for !cancelled.Load() {
			i := int(next.Add(1) - 1)
			if i >= len(tasks) {
				break
			}
			// Slot accounting, routing and resume all live inside
			// runScanTask; the engine only collects.
			err := s.runScanTask(ctx, tasks[i], add)
			if stageErr != nil {
				err = stageErr
			}
			if err != nil {
				fail(err)
			}
		}
		// A stopped scan drops the collector's partial batch.
		if cancelled.Load() {
			return
		}
		if b, ok, err := col.Finish(); err != nil {
			fail(err)
		} else if ok {
			out(b)
		}
	}

	if serial {
		work(deliver)
	} else {
		// Two batches per worker: a worker fills its next batch while
		// the consumer is still on an earlier one.
		ch := make(chan B, s.scanWidth()*2)
		send := func(b B) bool { ch <- b; return true }
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(send)
			}()
		}
		go func() {
			wg.Wait()
			close(ch)
		}()
		for b := range ch {
			deliver(b)
		}
	}
	atomic.AddInt64(&met.BatchesDecoded, delivered)
	// Every worker has finished (the channel closes only after wg.Wait),
	// so all fail() calls happened-before this point: the first worker
	// error is reported deterministically, even when emit cancelled.
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}

// DiskSize returns the region's on-disk bytes.
func (c *Cluster) DiskSize() int64 { return c.r.DiskSize() }

// Regions returns the region count: always 1.
func (c *Cluster) Regions() int { return 1 }

// Metrics returns a snapshot of cumulative storage metrics (plus the
// instantaneous flush-queue depth and table-count gauges).
func (c *Cluster) Metrics() Metrics {
	m := c.met.snapshot()
	m.FlushQueueDepth = int64(c.r.immCount())
	c.r.mu.RLock()
	m.Tables = int64(len(c.r.tables))
	c.r.mu.RUnlock()
	return m
}

// Close shuts the cluster down: the scrub loop first (a pass reads the
// whole store), then the region, which drains its background flusher
// and closes its WAL and SSTables — so a shutdown mid-ingest can never
// race an in-flight flush.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.stop)
	c.wg.Wait()
	// A pass already running finishes; later ones see closed and stop.
	c.scrubMu.Lock()
	c.scrubMu.Unlock()
	var err error
	if c.r != nil {
		err = c.r.Close()
	}
	// The scheduler goes last: region Close drains the flusher, which
	// still routes its final flushes through it.
	if c.ownJobs {
		c.jobs.Close()
	}
	return err
}
