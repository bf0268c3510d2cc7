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
	"just/internal/replica"
)

// ClusterOptions configure a Cluster.
type ClusterOptions struct {
	// Store-level options applied to every region.
	Options
	// Servers is the number of simulated region servers; defaults to 5,
	// matching the paper's evaluation cluster.
	Servers int
	// TasksPerServer bounds concurrent scan tasks per region server;
	// defaults to max(2, NumCPU/Servers).
	TasksPerServer int
	// SplitPoints pre-splits the key space, mirroring how GeoMesa's
	// shard prefixes spread writes across HBase regions. Points must be
	// sorted ascending; n points create n+1 regions.
	SplitPoints [][]byte
	// MaxRegionBytes triggers an automatic region split when a region's
	// on-disk size exceeds it; 0 disables auto-splitting. Incompatible
	// with Replication (a replicated region's group membership is fixed
	// at open).
	MaxRegionBytes int64
	// Replication is the number of replicas kept per region, each on a
	// different simulated region server and fed by WAL shipping from
	// the leader. 0 (the default) disables replication; it must be
	// smaller than Servers. With replication, reads and writes survive
	// the failure of any Replication servers (see KillServer).
	Replication int
	// ScrubInterval enables the background integrity scrubber: every
	// interval, all SSTable blocks on all nodes are re-read and
	// checksum-verified, and corrupt stores are repaired from replicas
	// (see Scrub). 0 (the default) disables the loop; Scrub can still
	// be run on demand.
	ScrubInterval time.Duration
}

// Cluster is the storage fabric: a sorted key space partitioned into
// regions, each an LSM store, hosted by simulated region servers that
// bound scan concurrency. It stands in for the HBase cluster under
// GeoMesa in the paper's deployment.
type Cluster struct {
	dir   string
	opts  ClusterOptions
	cache *blockCache
	met   Metrics

	mu      sync.RWMutex
	regions []*regionHandle
	servers []*regionServer
	nextID  int
	closed  bool

	// Zone-extractor registry: the table layer registers one extractor
	// per key prefix (table × index); flushes and compactions dispatch
	// through zoneFor to stamp per-block zone maps into SSTable indexes.
	zoneMu   sync.RWMutex
	zoneExts []zoneEntry

	// Integrity subsystem state (see scrub.go). repairWG tracks every
	// scheduled repair so Scrub and Close can wait for quiescence.
	repairWG        sync.WaitGroup
	scrubMu         sync.Mutex // serializes scrub passes
	scrubRunning    atomic.Bool
	scrubLastStart  atomic.Int64 // unix ms
	scrubLastDur    atomic.Int64 // ms
	scrubLastBlocks atomic.Int64
	scrubLastErr    error // last pass's RF0 corruption verdict (under scrubMu)

	// Maintenance scheduler: all background work (flush, compaction,
	// scrub, repair) runs through it. ownJobs marks a scheduler the
	// cluster created (and closes); a shared one is the caller's.
	jobs     *jobs.Scheduler
	ownJobs  bool
	scrubJob string // registered scrub job name
}

// jobKey scopes a handle's scheduler runs; it matches the member
// regions' jobKey (every node of a handle shares the region id), so a
// repair of the handle preempts an in-flight scrub of the same region.
func (h *regionHandle) jobKey() string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.nodes[0].r.jobKey()
}

// Jobs exposes the cluster's maintenance scheduler (admin API, tests).
func (c *Cluster) Jobs() *jobs.Scheduler { return c.jobs }

// regionHandle binds a key range to its replication group: nodes[0] is
// the current leader, the rest are replicas fed by WAL shipping. With
// replication off the group is a single node and the membership lock is
// never contended.
type regionHandle struct {
	kr    KeyRange
	mu    sync.RWMutex // membership/leadership; write-held by promote and repair
	nodes []*node      // nodes[0] = current leader
	group *replica.Group

	repairing atomic.Bool // collapses concurrent repairHandle runs
}

// regionServer models one node: a semaphore bounding concurrent tasks,
// plus the simulated liveness flag the failure-injection API flips.
type regionServer struct {
	id    int
	slots chan struct{}
	scans atomic.Int64 // tasks executed, for observability
	down  atomic.Bool  // KillServer / ReviveServer
}

func (s *regionServer) run(task func()) {
	s.slots <- struct{}{}
	defer func() { <-s.slots }()
	s.scans.Add(1)
	task()
}

// runCtx is run with cancellation: a task still queued for a server
// slot when ctx is canceled never starts, so a canceled query does not
// hold the cluster's scan concurrency hostage behind slow neighbors.
func (s *regionServer) runCtx(ctx context.Context, task func()) error {
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-s.slots }()
	s.scans.Add(1)
	task()
	return nil
}

// OpenCluster opens (or creates) a cluster rooted at dir.
func OpenCluster(dir string, opts ClusterOptions) (*Cluster, error) {
	if !ValidCodec(opts.Options.Codec) {
		return nil, fmt.Errorf("kv: unknown block codec %q (want none, gzip or lz4)", opts.Options.Codec)
	}
	opts.Options = opts.Options.withDefaults()
	if opts.Servers <= 0 {
		opts.Servers = 5
	}
	if opts.Replication < 0 {
		opts.Replication = 0
	}
	if opts.Replication >= opts.Servers {
		return nil, fmt.Errorf("kv: replication factor %d needs more than %d servers (each copy on a distinct server)", opts.Replication, opts.Servers)
	}
	if opts.Replication > 0 && opts.MaxRegionBytes > 0 {
		return nil, fmt.Errorf("kv: auto-splitting (MaxRegionBytes) is not supported with replication; pre-split with SplitPoints")
	}
	if opts.TasksPerServer <= 0 {
		opts.TasksPerServer = runtime.NumCPU() / opts.Servers
		if opts.TasksPerServer < 2 {
			opts.TasksPerServer = 2
		}
	}
	c := &Cluster{dir: dir, opts: opts, cache: newBlockCache(opts.BlockCacheBytes)}
	// Every region writes SSTables through the cluster's prefix
	// dispatcher, so extractors registered after open still cover data
	// flushed later (zone maps are stamped at flush/compaction time).
	c.opts.Options.ZoneExtractor = c.zoneFor
	// All maintenance runs through one scheduler; regions opened below
	// (and by splits/repairs later) inherit it through c.opts.Options.
	if c.jobs = opts.Options.Jobs; c.jobs == nil {
		c.jobs = jobs.New(jobs.Options{})
		c.ownJobs = true
		c.opts.Options.Jobs = c.jobs
	}
	for i := 0; i < opts.Servers; i++ {
		c.servers = append(c.servers, &regionServer{
			id:    i,
			slots: make(chan struct{}, opts.TasksPerServer),
		})
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
	for i, kr := range bounds {
		h, err := c.openHandle(i, kr)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.regions = append(c.regions, h)
		c.nextID = i + 1
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

// regionFor locates the handle owning key (regions are sorted by range).
func (c *Cluster) regionFor(key []byte) *regionHandle {
	// The first region whose End is nil or > key.
	i := sort.Search(len(c.regions), func(i int) bool {
		end := c.regions[i].kr.End
		return end == nil || bytes.Compare(key, end) < 0
	})
	return c.regions[i]
}

// Every point operation takes the caller's context. The in-process
// cluster has no wire to propagate a deadline over; honoring
// cancellation at the operation boundary keeps SQL-layer deadlines
// effective — individual region operations are short, the loops above
// them are what a deadline needs to cut.

// PutCtx stores key → value on the owning region's leader, failing over
// (promoting a replica) if the leader's server is down.
func (c *Cluster) PutCtx(ctx context.Context, key, value []byte) error {
	h, err := c.handleFor(ctx, key)
	if err != nil {
		return err
	}
	if err := h.leaderDo(c, func(r *region) error { return r.Put(key, value) }); err != nil {
		return err
	}
	return c.maybeSplit(h)
}

// DeleteCtx removes key.
func (c *Cluster) DeleteCtx(ctx context.Context, key []byte) error {
	h, err := c.handleFor(ctx, key)
	if err != nil {
		return err
	}
	return h.leaderDo(c, func(r *region) error { return r.Delete(key) })
}

// GetCtx fetches the value for key or ErrNotFound, transparently reading
// from a replica (drained to the committed sequence first) when the
// leader's server is down. A read that trips on a corrupt SSTable
// block reports the damage (quarantine + background repair) and
// retries on a healthy copy; only at RF=0 does the typed corruption
// error reach the caller.
func (c *Cluster) GetCtx(ctx context.Context, key []byte) ([]byte, error) {
	h, err := c.handleFor(ctx, key)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		n, err := h.readNode(c)
		if err != nil {
			return nil, err
		}
		v, err := n.r.Get(key)
		if err != nil && c.reportCorruption(h, n.r, err) && attempt < maxCorruptRetries {
			continue
		}
		return v, err
	}
}

// handleFor is the shared prologue of the single-key operations: an
// expired context or a closed cluster fails before any region is
// touched; otherwise the handle owning key is returned.
func (c *Cluster) handleFor(ctx context.Context, key []byte) (*regionHandle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, ErrClosed
	}
	return c.regionFor(key), nil
}

// Flush persists all memtables; call after bulk loads and before
// measuring on-disk size. Regions flush in parallel (their SSTables are
// independent files); splits run serially afterwards because they
// rewrite the region list.
func (c *Cluster) Flush() error {
	c.mu.RLock()
	hs := append([]*regionHandle(nil), c.regions...)
	c.mu.RUnlock()
	// Every node flushes — replicas run their own LSM maintenance even
	// while their server is marked down (the simulated failure cuts
	// serving and shipping, not the process hosting the data files).
	err := eachRegion(hs, func(h *regionHandle) error {
		for _, n := range h.nodeViews() {
			// ErrClosed: a corruption repair wiped this node between the
			// snapshot and the flush; the fresh store starts empty.
			if err := n.r.flush(); err != nil && err != ErrClosed {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, h := range hs {
		if err := c.maybeSplit(h); err != nil {
			return err
		}
	}
	return nil
}

// Compact fully compacts every region (all replication nodes), in
// parallel across regions.
func (c *Cluster) Compact() error {
	c.mu.RLock()
	hs := append([]*regionHandle(nil), c.regions...)
	c.mu.RUnlock()
	return eachRegion(hs, func(h *regionHandle) error {
		for _, n := range h.nodeViews() {
			if err := n.r.compact(); err != nil && err != ErrClosed {
				if c.reportCorruption(h, n.r, err) {
					continue // repair scheduled; the rebuilt store needs no compaction
				}
				return err
			}
		}
		return nil
	})
}

// eachRegion runs fn over every handle concurrently and returns the
// first error (by region order, for determinism).
func eachRegion(hs []*regionHandle, fn func(*regionHandle) error) error {
	if len(hs) == 1 {
		return fn(hs[0])
	}
	errs := make([]error, len(hs))
	var wg sync.WaitGroup
	for i, h := range hs {
		wg.Add(1)
		go func(i int, h *regionHandle) {
			defer wg.Done()
			errs[i] = fn(h)
		}(i, h)
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
	if err := ctx.Err(); err != nil {
		return err
	}
	if b == nil || len(b.muts) == 0 {
		return nil
	}
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return ErrClosed
	}
	// Fast path: every mutation lands in one region (always true before
	// the first split), so the batch is applied as-is with no grouping
	// allocation.
	if len(c.regions) == 1 {
		h := c.regions[0]
		c.mu.RUnlock()
		if err := h.leaderDo(c, func(r *region) error { return r.applyBatch(b.muts) }); err != nil {
			return err
		}
		return c.maybeSplit(h)
	}
	groups := make(map[*regionHandle][]mutation)
	var order []*regionHandle
	for _, m := range b.muts {
		h := c.regionFor(m.key)
		if _, ok := groups[h]; !ok {
			order = append(order, h)
		}
		groups[h] = append(groups[h], m)
	}
	c.mu.RUnlock()
	err := eachRegion(order, func(h *regionHandle) error {
		return h.leaderDo(c, func(r *region) error { return r.applyBatch(groups[h]) })
	})
	if err != nil {
		return err
	}
	for _, h := range order {
		if err := c.maybeSplit(h); err != nil {
			return err
		}
	}
	return nil
}

// MultiGetCtx fetches many keys at once: keys are grouped by owning
// region and each region probes its group against one consistent
// snapshot (single lock acquisition), with regions running in parallel.
// The result is parallel to keys; missing keys yield nil entries.
func (c *Cluster) MultiGetCtx(ctx context.Context, keys [][]byte) ([][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil, ErrClosed
	}
	groups := make(map[*regionHandle][]int)
	var order []*regionHandle
	for i, k := range keys {
		h := c.regionFor(k)
		if _, ok := groups[h]; !ok {
			order = append(order, h)
		}
		groups[h] = append(groups[h], i)
	}
	c.mu.RUnlock()
	err := eachRegion(order, func(h *regionHandle) error {
		idxs := groups[h]
		for attempt := 0; ; attempt++ {
			n, err := h.readNode(c)
			if err != nil {
				return err
			}
			err = n.r.getBatch(idxs, keys, out)
			if err != nil && c.reportCorruption(h, n.r, err) && attempt < maxCorruptRetries {
				// getBatch may have filled some entries before tripping;
				// reset them so the healthy copy's snapshot is authoritative.
				for _, i := range idxs {
					out[i] = nil
				}
				continue
			}
			return err
		}
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
	c.mu.RLock()
	hs := append([]*regionHandle(nil), c.regions...)
	c.mu.RUnlock()
	var tasks []scanTask
	for _, kr := range ranges {
		for _, h := range hs {
			if sub, ok := h.kr.Intersect(kr); ok {
				tasks = append(tasks, scanTask{kr: sub, h: h})
			}
		}
	}
	return tasks
}

// runScanTask streams one task's pairs with node selection, server-slot
// accounting and corruption failover (see scanOne).
func (c *Cluster) runScanTask(ctx context.Context, t scanTask, emit func(key, value []byte) bool) error {
	return c.scanOne(ctx, t.h, t.kr, emit)
}

func (c *Cluster) metrics() *Metrics { return &c.met }

func (c *Cluster) scanWidth() int { return len(c.servers) }

// ScanRanges runs one scan task per (region × range) in parallel across
// region servers — the paper's "trigger SCAN operations over the
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
// runs on its region server and feeds its own collector, so decode and
// filter work parallelizes across region-server slots instead of
// serializing on the consumer. Batches are delivered to emit serially,
// in arbitrary inter-task order, and counted into *batches.
//
// Plans of at most maxSerialScanTasks tasks run inline, one task after
// the other; larger plans fan out one goroutine per task (queued tasks
// wait for a server slot inside runScanTask). emit returning false
// cancels outstanding tasks and drains the pipeline before returning.
// Canceling ctx (client disconnect, deadline, admin kill) aborts
// promptly — workers poll the cancel flag per pair, queued tasks never
// take a slot — and the raw context error is returned (callers lift it
// into the typed lifecycle errors). A corrupt block resumes just past
// the last processed key on a healthy copy (batches already collected
// stay collected). The first collector or iterator error wins, even
// when emit cancelled the scan concurrently.
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
		// Node selection, slot accounting, corruption failover and resume
		// all live inside runScanTask; the engine only collects.
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

// scanOne runs one region-range scan on the serving node with
// corruption failover: a scan that trips on a corrupt block reports the
// damage, re-picks a healthy node and resumes just past the last key it
// delivered (keys are ascending, so nothing is re-emitted or skipped).
func (c *Cluster) scanOne(ctx context.Context, h *regionHandle, kr KeyRange, emit func(k, v []byte) bool) error {
	var resume []byte // last key handed to emit, reused across pairs
	for attempt := 0; ; attempt++ {
		n, err := h.readNode(c)
		if err != nil {
			return err
		}
		var scanErr error
		if err := n.server.runCtx(ctx, func() {
			it := n.r.Scan(kr)
			defer it.Close()
			for it.Next() {
				resume = append(resume[:0], it.Key()...)
				if !emit(it.Key(), it.Value()) {
					return
				}
			}
			scanErr = it.Err()
		}); err != nil {
			return err
		}
		if scanErr != nil && c.reportCorruption(h, n.r, scanErr) && attempt < maxCorruptRetries {
			if len(resume) > 0 {
				// Resume after the last delivered key (half-open ranges:
				// key+"\x00" is the smallest key greater than key).
				kr.Start = append(append([]byte(nil), resume...), 0)
			}
			continue
		}
		return scanErr
	}
}

// maybeSplit splits h into two regions if it outgrew MaxRegionBytes.
// Replicated clusters never auto-split (enforced at OpenCluster).
func (c *Cluster) maybeSplit(h *regionHandle) error {
	max := c.opts.MaxRegionBytes
	if max <= 0 || c.opts.Replication > 0 {
		return nil
	}
	hr := h.nodes[0].r
	if hr.DiskSize() <= max {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Re-check under the lock; another writer may have split already.
	idx := -1
	for i, cur := range c.regions {
		if cur == h {
			idx = i
			break
		}
	}
	if idx < 0 || hr.DiskSize() <= max {
		return nil
	}
	mid := hr.middleKey()
	if mid == nil || !h.kr.Contains(mid) {
		return nil // cannot find an interior split point
	}
	left, err := openRegion(c.nextID, filepath.Join(c.dir, fmt.Sprintf("region-%04d", c.nextID)), c.opts.Options, c.cache, &c.met)
	if err != nil {
		return err
	}
	c.nextID++
	right, err := openRegion(c.nextID, filepath.Join(c.dir, fmt.Sprintf("region-%04d", c.nextID)), c.opts.Options, c.cache, &c.met)
	if err != nil {
		left.Close()
		return err
	}
	c.nextID++
	// Rewrite the parent's live entries into the daughters.
	it := hr.Scan(KeyRange{})
	for it.Next() {
		dst := left
		if bytes.Compare(it.Key(), mid) >= 0 {
			dst = right
		}
		if err := dst.Put(it.Key(), it.Value()); err != nil {
			it.Close()
			left.Close()
			right.Close()
			return err
		}
	}
	if err := it.Err(); err != nil {
		left.Close()
		right.Close()
		return err
	}
	it.Close()
	if err := left.flush(); err != nil {
		return err
	}
	if err := right.flush(); err != nil {
		return err
	}
	parentDir := hr.dir
	hr.Close()
	hr.fs.RemoveAll(parentDir)
	// The busier half goes to the least-loaded server.
	lh := &regionHandle{kr: KeyRange{Start: h.kr.Start, End: mid}, nodes: []*node{{r: left, server: h.nodes[0].server}}}
	rh := &regionHandle{kr: KeyRange{Start: mid, End: h.kr.End}, nodes: []*node{{r: right, server: c.leastLoadedServer()}}}
	c.regions = append(c.regions[:idx], append([]*regionHandle{lh, rh}, c.regions[idx+1:]...)...)
	atomic.AddInt64(&c.met.RegionSplits, 1)
	return nil
}

func (c *Cluster) leastLoadedServer() *regionServer {
	counts := make(map[*regionServer]int, len(c.servers))
	for _, h := range c.regions {
		counts[h.nodes[0].server]++
	}
	best := c.servers[0]
	for _, s := range c.servers[1:] {
		if counts[s] < counts[best] {
			best = s
		}
	}
	return best
}

// DiskSize returns the total on-disk bytes across all regions,
// including replica copies (the physical storage cost: with replication
// factor R it is roughly (R+1)× the logical size).
func (c *Cluster) DiskSize() int64 {
	c.mu.RLock()
	hs := append([]*regionHandle(nil), c.regions...)
	c.mu.RUnlock()
	var total int64
	for _, h := range hs {
		for _, n := range h.nodeViews() {
			total += n.r.DiskSize()
		}
	}
	return total
}

// Regions returns the current number of regions (grows with splits).
func (c *Cluster) Regions() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.regions)
}

// Metrics returns a snapshot of cumulative storage metrics (plus the
// instantaneous flush-queue depth and replication lag gauges).
func (c *Cluster) Metrics() Metrics {
	c.mu.RLock()
	hs := append([]*regionHandle(nil), c.regions...)
	c.mu.RUnlock()
	// Counters are snapshotted whole; the gauges and the replication
	// group totals (kept by internal/replica, not in c.met) are filled in.
	m := c.met.snapshot()
	for _, h := range hs {
		for _, n := range h.nodeViews() {
			m.FlushQueueDepth += int64(n.r.immCount())
		}
		if h.group != nil {
			st := h.group.Stats()
			m.ShippedBatches += st.ShippedBatches
			m.ShippedBytes += st.ShippedBytes
			m.ReplicaApplies += st.Applies
			m.ReplicaRejects += st.Rejects
			if int64(st.LagMax) > m.ReplicaLagMax {
				m.ReplicaLagMax = int64(st.LagMax)
			}
		}
	}
	return m
}

// Close shuts the cluster down in dependency order: replica shippers
// drain first (every live applier replays the shipped log to the
// committed sequence), then each region drains its background flusher
// and closes its WAL and SSTables — so a shutdown mid-ingest can never
// race an in-flight flush or strand acknowledged batches unshipped.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	// Quiesce the integrity subsystem before touching the regions: the
	// scrubber and in-flight repairs read and rebuild stores, so they
	// must finish (repairs observe the closed flag and wind down) before
	// the stores go away.
	if c.scrubJob != "" {
		c.jobs.Deregister(c.scrubJob)
	}
	c.repairWG.Wait()

	c.mu.Lock()
	var first error
	for _, h := range c.regions {
		if h.group != nil {
			if err := h.group.Close(true); err != nil && first == nil {
				first = err
			}
		}
	}
	for _, h := range c.regions {
		for _, n := range h.nodeViews() {
			if err := n.r.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	c.mu.Unlock()
	// The scheduler goes last: region Close drains flushers, which still
	// route their final flushes through it.
	if c.ownJobs {
		c.jobs.Close()
	}
	return first
}

// middleKey returns an approximate median key of the region, used as a
// split point: the first key of the middle block of the largest SSTable.
func (r *region) middleKey() []byte {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var biggest *table
	for _, t := range r.tables {
		if biggest == nil || t.size > biggest.size {
			biggest = t
		}
	}
	if biggest == nil || len(biggest.index) < 2 {
		return nil
	}
	return biggest.index[len(biggest.index)/2].firstKey
}
