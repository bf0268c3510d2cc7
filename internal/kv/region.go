package kv

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"just/internal/jobs"
)

// Options configure a store.
type Options struct {
	// MemtableBytes is the flush threshold; default 4 MiB.
	MemtableBytes int64
	// MaxTables triggers a background tier merge when a region owns more
	// SSTables than this; default 8. The merge takes a run of the newest
	// tables (see tierRun), not the whole region.
	MaxTables int
	// FlushQueue bounds the frozen memtables awaiting background flush;
	// writers stall (the engine's only write stall) once more than this
	// many are queued, until the flusher drains below the bound.
	// Default 2.
	FlushQueue int
	// BlockCacheBytes sizes the shared LRU block cache; 0 means the
	// default 32 MiB, a negative value disables the cache entirely.
	BlockCacheBytes int64
	// Codec selects the block/WAL compression codec: "none", "gzip" or
	// "lz4"; empty means "none". The codec applies to SSTable blocks
	// written from now on — flushes and compactions — and to WAL batch
	// envelopes; existing tables keep their per-block codec and remain
	// readable, so a store can change codec between restarts and
	// converge through compaction.
	Codec string
	// DisableWAL skips write-ahead logging (bulk loads that can be
	// replayed from source, as in the paper's batch ingestion).
	DisableWAL bool
	// families, when set, are the key families each SSTable build
	// snapshots: the Cluster installs its registry here.
	families *registry
	// FS is the filesystem the store runs on. nil means the real
	// filesystem (or, when JUST_FAULT_READ_PROB is set, the real
	// filesystem under a global transient-read fault injector); tests
	// install a FaultFS to make disk failures reproducible.
	FS VFS
	// Jobs is the maintenance scheduler flush, compaction and scrub run
	// through: per-class concurrency caps, bounded retries for flush and
	// compaction, panics turned into errors, and the disk-pressure
	// watchdog. nil means OpenCluster creates one it owns; a region
	// opened outside a cluster keeps nil, whose Do retries the same way
	// with no cap.
	Jobs *jobs.Scheduler
}

// blockCodec resolves the Options codec selection to a blockCodec* id.
// Unknown names are rejected by OpenCluster; here they degrade to
// uncompressed rather than poisoning writes.
func (o Options) blockCodec() uint8 {
	switch o.Codec {
	case "gzip":
		return blockCodecGzip
	case "lz4":
		return blockCodecLZ4
	default:
		return blockCodecNone
	}
}

// ValidCodec reports whether name is a recognized block codec selection.
func ValidCodec(name string) bool {
	switch name {
	case "", "none", "gzip", "lz4":
		return true
	}
	return false
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.MaxTables <= 0 {
		o.MaxTables = 8
	}
	if o.FlushQueue <= 0 {
		o.FlushQueue = 2
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = 32 << 20 // negative disables (see newBlockCache)
	}
	if o.FS == nil {
		o.FS = defaultFS()
	}
	return o
}

// region is one contiguous key-range shard: an LSM tree with its own WAL,
// memtable and SSTables. It corresponds to an HBase region.
//
// Memtable flushes are asynchronous: when the active memtable crosses
// the threshold it is frozen onto imm (still visible to Get and Scan)
// and a background flusher goroutine builds the SSTable, so writers
// never build one inline. Writers stall only when more than
// Options.FlushQueue frozen memtables are pending.
type region struct {
	id    int
	dir   string
	opts  Options
	fs    VFS
	cache *blockCache
	met   *Metrics

	// corrupt latches once a persistent checksum failure is detected in
	// one of the region's tables (read- or scrub-time). A corrupt
	// region keeps serving what it can; the flag is reported by
	// Cluster.ScrubState.
	corrupt atomic.Bool

	// walMu orders the writers: commits (applyBatch, put), a freeze's
	// WAL rotation and Close's log close. A commit's WAL sync and memtable
	// insert hold it and not mu, so reads never wait on the disk. Only
	// its holder changes the active memtable, which lets putBatch search
	// it without the skiplist lock. Lock order: walMu, mu, skiplist. mem
	// and log change only under both.
	walMu  sync.Mutex
	staged []memEntry // applyBatch's scratch, guarded by walMu

	mu          sync.RWMutex
	cond        *sync.Cond // broadcast on imm / closed / flushErr transitions
	mem         *skiplist
	memWALs     []string  // WAL files holding mem's unflushed data (active last)
	imm         []*immMem // frozen memtables awaiting flush, oldest first
	tables      []*table  // oldest first
	log         *wal
	walSeq      int
	sstSeq      int
	closed      bool
	flushErr    error // first background flush failure; poisons writes
	degraded    bool  // flush parked by disk pressure; writes see ErrDiskPressure when the queue is full
	flushPaused bool  // test hook: parks the flusher while set
	dataSz      int64 // on-disk bytes across tables
	entries     int64 // approximate live entry count

	ioMu        sync.Mutex // serializes SSTable builds (flush vs compact)
	flusherDone chan struct{}
}

// immMem is a frozen memtable queued for background flush, together with
// the WAL files whose records it holds (deleted once the flush lands).
type immMem struct {
	mem  *skiplist
	wals []string
}

type manifest struct {
	Tables []string `json:"tables"`
	SSTSeq int      `json:"sst_seq"`
	WALSeq int      `json:"wal_seq"`
}

func openRegion(id int, dir string, opts Options, cache *blockCache, met *Metrics) (*region, error) {
	fs := opts.FS
	if fs == nil {
		fs = defaultFS()
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &region{id: id, dir: dir, opts: opts, fs: fs, cache: cache, met: met, mem: newSkiplist()}

	var m manifest
	data, err := fs.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err == nil {
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	r.sstSeq = m.SSTSeq
	r.walSeq = m.WALSeq
	if err := r.removeOrphans(m); err != nil {
		return nil, err
	}
	for _, name := range m.Tables {
		t, err := openTable(fs, filepath.Join(dir, name), cache, met)
		if err != nil {
			return nil, err
		}
		r.tables = append(r.tables, t)
		r.dataSz += t.size
		r.entries += int64(t.count)
	}
	// Recover un-flushed mutations. A WAL file is deleted only after the
	// memtable it backs reaches an SSTable, so every wal-*.log present
	// (possibly several, from frozen memtables the background flusher
	// never finished) holds live data; replay all of them in sequence
	// order.
	if !opts.DisableWAL {
		walFiles, err := fs.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil {
			return nil, err
		}
		sort.Strings(walFiles) // zero-padded sequence numbers sort correctly
		var tail int64         // offset past the last valid record of the newest file
		for i, p := range walFiles {
			end, err := replayWAL(fs, p, func(k kind, key, value []byte) error {
				r.mem.put(append([]byte(nil), key...), append([]byte(nil), value...), k)
				return nil
			})
			if err != nil {
				return nil, err
			}
			if i == len(walFiles)-1 {
				tail = end
			}
			var seq int
			if _, err := fmt.Sscanf(filepath.Base(p), "wal-%d.log", &seq); err == nil && seq > r.walSeq {
				r.walSeq = seq
			}
		}
		// The newest segment is reopened for append below. If its tail is
		// torn (replay stopped early), truncate the garbage first: records
		// appended behind it would be unreachable on the next replay, which
		// stops at the torn record — silently losing group-committed,
		// crash-durable batches written after this recovery.
		if n := len(walFiles); n > 0 {
			if st, err := fs.Stat(walFiles[n-1]); err == nil && st.Size() > tail {
				if err := fs.Truncate(walFiles[n-1], tail); err != nil {
					return nil, err
				}
			}
		}
		if r.log, err = openWAL(fs, r.walPath(), r.opts.blockCodec() == blockCodecLZ4); err != nil {
			return nil, err
		}
		r.memWALs = walFiles
		if len(walFiles) == 0 || walFiles[len(walFiles)-1] != r.walPath() {
			r.memWALs = append(r.memWALs, r.walPath())
			// The first append segment's directory entry must survive a
			// crash, or recovery would miss the whole segment.
			if err := fs.SyncDir(dir); err != nil {
				return nil, err
			}
		}
	}
	r.cond = sync.NewCond(&r.mu)
	r.flusherDone = make(chan struct{})
	go r.flusher()
	return r, nil
}

// removeOrphans deletes files a crashed flush or compaction left
// behind: .tmp build files (tables that never reached their rename, and
// interrupted manifest writes) and sst files the manifest does not
// reference (renamed but never committed to the manifest — their WALs
// are still on disk, so the data replays). Run before tables are
// opened, so a leftover can never be confused with live data.
func (r *region) removeOrphans(m manifest) error {
	live := make(map[string]bool, len(m.Tables))
	for _, name := range m.Tables {
		live[name] = true
	}
	var orphans []string
	tmps, err := r.fs.Glob(filepath.Join(r.dir, "*.tmp"))
	if err != nil {
		return err
	}
	orphans = append(orphans, tmps...)
	ssts, err := r.fs.Glob(filepath.Join(r.dir, "sst-*.sst"))
	if err != nil {
		return err
	}
	for _, p := range ssts {
		if !live[filepath.Base(p)] {
			orphans = append(orphans, p)
		}
	}
	for _, p := range orphans {
		if err := r.fs.Remove(p); err != nil {
			return err
		}
		if r.met != nil {
			atomic.AddInt64(&r.met.OrphansRemoved, 1)
		}
	}
	if len(orphans) > 0 {
		return r.fs.SyncDir(r.dir)
	}
	return nil
}

// noteCorruption latches the region's corrupt flag when err is a
// persistent checksum failure; any other error (or nil) is ignored.
func (r *region) noteCorruption(err error) {
	if err == nil {
		return // before cb is declared: errors.As moves it to the heap
	}
	var cb *ErrCorruptBlock
	if errors.As(err, &cb) {
		r.corrupt.Store(true)
	}
}

// verifyTables re-reads every data block of every live table and checks
// its checksum against disk (the scrub pass). It returns the number of
// blocks verified and the first corruption found, if any. A ctx cancel
// (shutdown) stops the walk between tables and returns the ctx error.
func (r *region) verifyTables(ctx context.Context) (int64, error) {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return 0, ErrClosed
	}
	tables := pinTables(nil, r.tables)
	r.mu.RUnlock()
	defer releaseTables(tables)
	var blocks int64
	for _, t := range tables {
		if err := ctx.Err(); err != nil {
			return blocks, err
		}
		n, err := t.verify()
		blocks += n
		if err != nil {
			return blocks, err
		}
	}
	return blocks, nil
}

func (r *region) walPath() string {
	return filepath.Join(r.dir, fmt.Sprintf("wal-%06d.log", r.walSeq))
}

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
	r.mem.put(append([]byte(nil), key...), append([]byte(nil), value...), k)
	return r.maybeFreeze()
}

// Put inserts or overwrites key.
func (r *region) Put(key, value []byte) error { return r.put(key, value, kindPut) }

// Delete writes a tombstone for key.
func (r *region) Delete(key []byte) error { return r.put(key, nil, kindDelete) }

// writable reports why the region refuses a write, if it does.
func (r *region) writable() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	switch {
	case r.closed:
		return ErrClosed
	case r.flushErr != nil:
		return r.flushErr
	case r.degraded && len(r.imm) > r.opts.FlushQueue:
		return ErrDiskPressure
	}
	return nil
}

// applyBatch is the region half of Cluster.ApplyCtx, the group commit.
// Holding walMu but not mu, it appends the batch to the WAL as one
// record with a single sync, copies it into one arena and inserts it
// into the memtable, holding the skiplist lock only to link it in. A
// reader thus sees the batch whole, after its sync, or not at all, and
// never waits on the disk. mu is taken for writing only for the freeze
// check.
func (r *region) applyBatch(muts []mutation) error {
	r.walMu.Lock()
	defer r.walMu.Unlock()
	if err := r.writable(); err != nil {
		return err
	}
	if r.log != nil {
		n, err := r.log.appendBatch(muts)
		if err != nil {
			return err
		}
		// Counted only after the sync succeeded: a failed flush or fsync is
		// not a completed WAL sync.
		if r.met != nil {
			atomic.AddInt64(&r.met.BytesWritten, n)
			atomic.AddInt64(&r.met.WALSyncs, 1)
			atomic.AddInt64(&r.met.WALSyncBytes, n)
		}
	}
	// The memtable owns its keys and values, so the batch's slices must
	// be copied — into one arena allocation for the whole batch rather
	// than two per mutation, which cuts allocator and GC pressure on the
	// bulk-ingest path (the arena's lifetime matches the memtable's
	// anyway: everything in it stays live until the flush). A run of puts
	// reusing one value slice — a row's attribute and index copies from
	// Table.InsertBatchCtx — is stored once and shared.
	total := 0
	var prev []byte
	for _, m := range muts {
		total += len(m.key)
		if m.k == kindPut {
			if !sameSlice(m.value, prev) {
				total += len(m.value)
			}
			prev = m.value
		}
	}
	arena := make([]byte, 0, total)
	staged := r.staged[:0]
	var prevSrc, prevCopy []byte
	for _, m := range muts {
		arena = append(arena, m.key...)
		key := arena[len(arena)-len(m.key):]
		var v []byte
		if m.k == kindPut {
			if sameSlice(m.value, prevSrc) {
				v = prevCopy
			} else {
				arena = append(arena, m.value...)
				v = arena[len(arena)-len(m.value):]
			}
			prevSrc, prevCopy = m.value, v
		}
		staged = append(staged, memEntry{key: key, value: v, kind: m.k})
	}
	r.mem.putBatch(staged)
	clear(staged) // the scratch must not pin this arena past its flush
	r.staged = staged
	if r.met != nil {
		atomic.AddInt64(&r.met.GroupCommits, 1)
		atomic.AddInt64(&r.met.GroupCommitRecords, int64(len(muts)))
	}
	return r.maybeFreeze()
}

// maybeFreeze runs maybeFreezeLocked under mu. Called with walMu held.
func (r *region) maybeFreeze() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maybeFreezeLocked()
}

// maybeFreezeLocked freezes the active memtable once it crosses the
// threshold and applies backpressure when the flush queue is full.
// Called with walMu and mu held. A region closed while the commit ran
// is not frozen: the batch is durable, and its WAL replays on reopen.
func (r *region) maybeFreezeLocked() error {
	if r.closed || r.mem.size < r.opts.MemtableBytes {
		return nil
	}
	if err := r.freezeLocked(); err != nil {
		return err
	}
	// Backpressure: the only write stall. Writers wait until the
	// background flusher drains the queue below the bound. A region
	// degraded by disk pressure does not stall writers indefinitely —
	// they get the typed ErrDiskPressure instead and can back off.
	if len(r.imm) > r.opts.FlushQueue {
		start := time.Now()
		for len(r.imm) > r.opts.FlushQueue && !r.closed && r.flushErr == nil && !r.flushPaused && !r.degraded {
			r.cond.Wait()
		}
		if r.met != nil {
			atomic.AddInt64(&r.met.WriteStalls, 1)
			atomic.AddInt64(&r.met.WriteStallNanos, time.Since(start).Nanoseconds())
		}
		if r.degraded && len(r.imm) > r.opts.FlushQueue && r.flushErr == nil {
			return ErrDiskPressure
		}
	}
	return r.flushErr
}

// freezeLocked moves the active memtable onto the imm queue (where Get
// and Scan still see it), rotates the WAL, and wakes the flusher.
// Called with walMu and mu held.
func (r *region) freezeLocked() error {
	if r.mem.count == 0 {
		return nil
	}
	r.imm = append(r.imm, &immMem{mem: r.mem, wals: r.memWALs})
	r.mem = newSkiplist()
	r.memWALs = nil
	if r.log != nil {
		if err := r.log.close(); err != nil {
			return err
		}
		r.walSeq++
		var err error
		if r.log, err = openWAL(r.fs, r.walPath(), r.opts.blockCodec() == blockCodecLZ4); err != nil {
			return err
		}
		r.memWALs = []string{r.walPath()}
		// Make the new segment's directory entry durable: if a crash
		// dropped it, recovery would replay the frozen memtable's WALs
		// but miss everything appended to this segment.
		if err := r.fs.SyncDir(r.dir); err != nil {
			return err
		}
	}
	r.cond.Broadcast()
	return nil
}

// pinTables snapshots and pins a region's table stack for a lock-free
// read, appending it to dst. It must be called under r.mu (read or
// write): the region's own reference keeps every table in r.tables
// live, and holding the lock excludes compact's retire (which runs
// under the write lock) from slipping between the copy and the incRef.
func pinTables(dst, ts []*table) []*table {
	out := append(dst, ts...)
	for _, t := range out {
		t.incRef()
	}
	return out
}

// releaseTables unpins a snapshot taken with pinTables.
func releaseTables(ts []*table) {
	for _, t := range ts {
		t.decRef()
	}
}

// Get returns the value for key or ErrNotFound.
func (r *region) Get(key []byte) ([]byte, error) {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return nil, ErrClosed
	}
	mem := r.mem
	imms := append([]*immMem(nil), r.imm...)
	tables := pinTables(nil, r.tables)
	r.mu.RUnlock()
	defer releaseTables(tables)
	v, k, _ := mem.get(key)
	return getFrom(memEntry{value: v, kind: k}, imms, tables, key)
}

// getBatch probes many keys against one consistent snapshot of the
// region: the table stack and frozen memtables as of one acquisition
// of mu, and the active memtable as of one acquisition of its own lock.
// Missing keys yield nil entries in out, which is parallel to keys.
func (r *region) getBatch(keys, out [][]byte) error {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return ErrClosed
	}
	mem := r.mem
	imms := append([]*immMem(nil), r.imm...)
	tables := pinTables(nil, r.tables)
	r.mu.RUnlock()
	defer releaseTables(tables)
	hits := make([]memEntry, len(keys))
	mem.getBatch(keys, hits)
	for i, k := range keys {
		v, err := getFrom(hits[i], imms, tables, k)
		if err == ErrNotFound {
			continue
		}
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// getFrom searches a snapshot newest-first: e, the active memtable's
// entry for key (kind 0 if it has none), then frozen memtables (newest
// first), then SSTables (newest first).
func getFrom(e memEntry, imms []*immMem, tables []*table, key []byte) ([]byte, error) {
	switch e.kind {
	case kindDelete:
		return nil, ErrNotFound
	case kindPut:
		return e.value, nil
	}
	for i := len(imms) - 1; i >= 0; i-- {
		if v, k, ok := imms[i].mem.get(key); ok {
			if k == kindDelete {
				return nil, ErrNotFound
			}
			return v, nil
		}
	}
	for i := len(tables) - 1; i >= 0; i-- { // newest table wins
		v, k, ok, err := tables[i].get(key)
		if err != nil {
			return nil, err
		}
		if ok {
			if k == kindDelete {
				return nil, ErrNotFound
			}
			return v, nil
		}
	}
	return nil, ErrNotFound
}

// flush synchronously persists all buffered writes: it freezes the
// active memtable and waits until the background flusher has drained
// every frozen memtable to SSTables. Call after bulk loads and before
// measuring on-disk size.
func (r *region) flush() error {
	r.walMu.Lock()
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.flushErr
	if r.closed {
		err = ErrClosed
	}
	if err == nil {
		err = r.freezeLocked()
	}
	r.walMu.Unlock() // commits may go on while the flusher drains
	if err != nil {
		return err
	}
	for len(r.imm) > 0 && r.flushErr == nil && !r.closed && !r.flushPaused && !r.degraded {
		r.cond.Wait()
	}
	if r.degraded && len(r.imm) > 0 && r.flushErr == nil {
		return ErrDiskPressure
	}
	return r.flushErr
}

// flusher is the region's background flush goroutine: it drains the imm
// queue oldest-first, building each SSTable off the writers' path, and
// runs the compaction check after each install. Every flush goes
// through the scheduler, which gives it the flush class's bounded
// jittered retries and panic isolation; only an error that survives the
// retry budget — and is not transient disk pressure — latches flushErr
// and poisons writes. Under disk pressure the region instead degrades:
// the frozen memtable stays queued (still readable, its WAL stays on
// disk), writers see the typed ErrDiskPressure once the queue is full,
// and the flush re-attempts until space frees up.
func (r *region) flusher() {
	defer close(r.flusherDone)
	r.mu.Lock()
	for {
		for !r.closed && (len(r.imm) == 0 || r.flushErr != nil || r.flushPaused) {
			r.cond.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		im := r.imm[0]
		r.mu.Unlock()

		err := r.opts.Jobs.Do(context.Background(), jobs.ClassFlush, func(context.Context) error {
			return r.flushImm(im)
		})

		r.mu.Lock()
		if err != nil {
			if errors.Is(err, jobs.ErrDiskPressure) || r.opts.Jobs.Pressured() {
				// Transient: stay degraded and retry instead of
				// poisoning the region forever.
				r.degraded = true
				r.cond.Broadcast()
				r.mu.Unlock()
				r.pacePressureRetry()
				r.mu.Lock()
				continue
			}
			if r.flushErr == nil {
				r.flushErr = err
			}
			r.cond.Broadcast()
			continue
		}
		if r.degraded {
			r.degraded = false
		}
		if len(r.imm) > 0 && r.imm[0] == im {
			r.imm = r.imm[1:]
		}
		needCompact := len(r.tables) > r.opts.MaxTables
		r.cond.Broadcast()
		if needCompact {
			r.mu.Unlock()
			// The tier merge runs on the flusher, not a goroutine of
			// its own: flushes wait behind it, so a writer that fills
			// the queue meanwhile stalls and leaves the CPU to reads.
			// A compaction failure does not poison writes: it counts
			// in the compact class's metrics and the region keeps
			// serving; under disk pressure the scheduler sheds the run
			// entirely, pausing compaction's output amplification.
			cerr := r.opts.Jobs.Do(context.Background(), jobs.ClassCompact, func(context.Context) error {
				return r.merge(true)
			})
			r.mu.Lock()
			if cerr != nil && r.met != nil {
				atomic.AddInt64(&r.met.CompactionsDeferred, 1)
			}
		}
	}
}

// pacePressureRetry spaces out flush re-attempts while the region is
// degraded by disk pressure, returning early when the region closes.
func (r *region) pacePressureRetry() {
	for i := 0; i < 5; i++ {
		r.mu.Lock()
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// flushImm builds the SSTable for one frozen memtable and installs it.
// The frozen memtable stays on the imm queue (visible to reads) until
// the caller removes it after a successful install, so there is no
// window where its entries are in neither the queue nor a table.
func (r *region) flushImm(im *immMem) error {
	r.ioMu.Lock()
	defer r.ioMu.Unlock()
	r.mu.Lock()
	r.sstSeq++
	name := fmt.Sprintf("sst-%06d.sst", r.sstSeq)
	r.mu.Unlock()

	tw, err := newTableWriter(r.fs, filepath.Join(r.dir, name), r.opts.blockCodec(), r.opts.families.snapshot(), im.mem.count)
	if err != nil {
		return err
	}
	// The frozen memtable streams into the writer: no copy of its entries.
	im.mem.iterate(KeyRange{}, func(key, value []byte, k kind) bool {
		err = tw.add(key, value, k)
		return err == nil
	})
	if err != nil {
		tw.abort()
		return err
	}
	size, err := tw.finish()
	if err != nil {
		tw.abort()
		return err
	}
	t, err := openTable(r.fs, filepath.Join(r.dir, name), r.cache, r.met)
	if err != nil {
		return err
	}

	r.mu.Lock()
	r.tables = append(r.tables, t)
	r.dataSz += size
	r.entries += int64(t.count)
	r.mu.Unlock()

	if r.met != nil {
		atomic.AddInt64(&r.met.BytesWritten, size)
		atomic.AddInt64(&r.met.Flushes, 1)
	}
	// The manifest must list the new table before its WAL files are
	// deleted, or a crash in between would lose the batch.
	if err := r.writeManifest(); err != nil {
		return err
	}
	for _, p := range im.wals {
		r.fs.Remove(p)
	}
	return nil
}

// tierRatio is the size-tiered selection rule: the next older table
// joins a tier merge's run while its size is at most tierRatio times the
// run's total.
//
// This was swept on the benchmark's order_rw workload (one writer of
// 500-row batches beside one reader; 2 MiB memtables, MaxTables 8),
// 10 s windows, medians of seeds 1-10 (ratio 1/2: seeds 1-4); merges
// that always take the whole region (the rule before tiers) first:
//
//	whole region  ingest 52.0k rows/s  write_amp 13.2  query 529/s  p50 0.71 ms  rss 156 MiB
//	ratio 1/2     ingest 63.0k rows/s  write_amp  8.2  query 476/s  p50 0.78 ms  rss 156 MiB
//	ratio 1       ingest 56.5k rows/s  write_amp 10.4  query 506/s  p50 0.78 ms  rss 184 MiB
//	ratio 2       ingest 55.9k rows/s  write_amp 11.0  query 533/s  p50 0.72 ms  rss 156 MiB
//
// Smaller ratios buy ingest with the reader's CPU and memory: the
// writer stalls less, and more tables stay unmerged. Ratio 2 keeps
// order_rw's reads at the whole-region rule's level; ratio 1/2 also
// raises bulk-load write_amp (9.31 -> 10.02 on order_st).
// 2 vCPU Intel Xeon, go1.24.0.
const tierRatio = 2.0

// tierRun returns the index of the oldest table in the run a tier merge
// takes: the two newest tables, extended to each next older table while
// that table is at most tierRatio times the run's size. Called with at
// least two tables.
func tierRun(ts []*table) int {
	lo := len(ts) - 2
	sum := ts[lo].size + ts[lo+1].size
	for lo > 0 && float64(ts[lo-1].size) <= tierRatio*float64(sum) {
		lo--
		sum += ts[lo].size
	}
	return lo
}

// compact merges every SSTable in the region into one, dropping shadowed
// versions and tombstones: the major compaction Store.Compact and the
// region node's maintenance handler run.
func (r *region) compact() error { return r.merge(false) }

// merge rewrites a contiguous run of tables as one. A full merge takes
// every table; a tier merge (the flusher's, once the region holds more
// than MaxTables) takes the run tierRun picks. Tombstones are dropped
// only when the run starts at the oldest table, since only then can no
// older version sit beneath them.
func (r *region) merge(tier bool) error {
	r.ioMu.Lock()
	defer r.ioMu.Unlock()
	r.mu.RLock()
	lo := 0
	if tier && len(r.tables) >= 2 {
		lo = tierRun(r.tables)
	}
	tables := pinTables(nil, r.tables[lo:])
	r.mu.RUnlock()
	defer releaseTables(tables)
	if len(tables) < 2 {
		return nil
	}
	r.mu.Lock()
	r.sstSeq++
	name := fmt.Sprintf("sst-%06d.sst", r.sstSeq)
	r.mu.Unlock()

	n := 0
	for _, t := range tables {
		n += int(t.count)
	}
	it := &mergeIter{raw: true, direct: true}
	it.arm(tables)
	it.seek(KeyRange{})
	tw, err := newTableWriter(r.fs, filepath.Join(r.dir, name), r.opts.blockCodec(), r.opts.families.snapshot(), n)
	if err != nil {
		return err
	}
	for it.nextRaw() {
		if it.kind() == kindDelete && lo == 0 {
			continue // nothing older remains for the tombstone to shadow
		}
		if err := tw.add(it.Key(), it.Value(), it.kind()); err != nil {
			tw.abort()
			return err
		}
	}
	if it.Err() != nil {
		tw.abort()
		return it.Err()
	}
	size, err := tw.finish()
	if err != nil {
		tw.abort()
		return err
	}
	nt, err := openTable(r.fs, filepath.Join(r.dir, name), r.cache, r.met)
	if err != nil {
		return err
	}

	r.mu.Lock()
	// The merged table takes the run's place in the stack, so the order
	// of r.tables (and of the manifest) stays the priority order. ioMu,
	// held since the snapshot, serializes every change to r.tables.
	kept := append(r.tables[:lo:lo], nt)
	r.tables = append(kept, r.tables[lo+len(tables):]...)
	r.dataSz = 0
	r.entries = 0
	for _, t := range r.tables {
		r.dataSz += t.size
		r.entries += int64(t.count)
	}
	r.mu.Unlock()

	if r.met != nil {
		atomic.AddInt64(&r.met.BytesWritten, size)
		atomic.AddInt64(&r.met.Compactions, 1)
	}
	if err := r.writeManifest(); err != nil {
		return err
	}
	// Retire the merged tables under the write lock: in-flight reads that
	// pinned them keep the files open (the last decRef closes and unlinks),
	// and the lock guarantees no reader is mid-pin. The manifest above
	// already lists only the merged result, so an immediate unlink is
	// crash-safe.
	r.mu.Lock()
	for _, t := range tables {
		t.retire()
	}
	r.mu.Unlock()
	return nil
}

func (r *region) writeManifest() error {
	r.mu.RLock()
	m := manifest{SSTSeq: r.sstSeq, WALSeq: r.walSeq}
	for _, t := range r.tables {
		m.Tables = append(m.Tables, filepath.Base(t.path))
	}
	r.mu.RUnlock()
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(r.dir, "MANIFEST.tmp")
	if err := r.fs.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := r.fs.Rename(tmp, filepath.Join(r.dir, "MANIFEST")); err != nil {
		return err
	}
	// The manifest rename must be durable before the caller deletes the
	// WALs (flush) or unlinks the merged tables (compaction).
	return r.fs.SyncDir(r.dir)
}

// snapshot opens a merge over the region as it stands: the active
// memtable, unless it is empty, and the frozen ones are captured and the
// tables pinned under one read lock, so compaction cannot retire them
// under the merge. seek then moves it through the ranges of a run;
// Close releases the pins. Each seek copies the captured memtables'
// entries in its range, so it also sees writes that land in the
// captured active memtable meanwhile: they are newer than anything else
// the snapshot holds. A merge a scan recycled is re-armed in place.
func (r *region) snapshot() *mergeIter {
	m := mergeIters.Get().(*mergeIter)
	r.rearm(m)
	return m
}

// rearm points a new or reset merge at the region's current sources.
func (r *region) rearm(m *mergeIter) {
	r.mu.RLock()
	if !r.mem.empty() { // most scans of a bulk-loaded table find none to merge
		m.addMem(r.mem)
	}
	for i := len(r.imm) - 1; i >= 0; i-- {
		m.addMem(r.imm[i].mem)
	}
	m.pins = pinTables(m.pins, r.tables)
	r.mu.RUnlock()
	m.arm(m.pins)
}

// Scan returns an iterator over live pairs in the range: a one-range
// run of a snapshot whose pairs stay valid after Close.
func (r *region) Scan(kr KeyRange) Iterator {
	m := mergeIters.Get().(*mergeIter)
	m.escape = true
	r.rearm(m)
	m.seek(kr)
	return m
}

// immCount reports the flush-queue depth (frozen memtables pending).
func (r *region) immCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.imm)
}

// DiskSize returns the total SSTable bytes owned by the region.
func (r *region) DiskSize() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dataSz
}

// Close drains the background flusher, then closes the WAL and
// SSTables. The drain — waiting until every frozen memtable has reached
// an SSTable — means shutdown can never race an in-flight flush: the
// WAL is closed only after the flusher has nothing left to do. The
// active (never-frozen) memtable is not flushed; its WAL stays on disk
// and replays on the next open. If a flush error has poisoned the
// region (or the test hook parked the flusher), the drain is skipped
// and pending memtables are abandoned to WAL replay as before.
func (r *region) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	for len(r.imm) > 0 && r.flushErr == nil && !r.flushPaused && !r.degraded {
		r.cond.Wait()
	}
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	<-r.flusherDone // an in-flight flush finishes installing first

	r.walMu.Lock() // and an in-flight commit finishes its insert
	defer r.walMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	if r.log != nil {
		if err := r.log.close(); err != nil {
			first = err
		}
	}
	for _, t := range r.tables {
		if err := t.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// mergeIter merges memtables and SSTables, newest source wins for
// duplicate keys, tombstones suppressed (unless raw). Pairs are the
// sources' own slices: arenas and blocks are never rewritten. It serves
// the ranges of a run one seek at a time.
type mergeIter struct {
	mems   []memSrc    // the active memtable first, then frozen ones newest first
	tables []tableIter // oldest first
	h      srcHeap
	key    []byte
	value  []byte
	err    error

	// high is the highest end of the ranges served so far, and open
	// whether one of them had no end: every entry any table passed lies
	// below high, so a range starting at or past it may walk on. high
	// is the caller's slice, which a range must not change once sought.
	high []byte
	open bool
	knd  kind
	raw  bool     // emit tombstones and shadowed versions' winners too
	pins []*table // the tables region.snapshot pinned, oldest first; released on Close

	// escape: the caller may keep pairs past the next nextRaw, and past
	// Close (region.Scan), so no block it reads is ever recycled. Else a
	// pair is valid until the next nextRaw, and the merge holds the blocks
	// it reads until then (see tableIter), past the cache if direct.
	escape, direct bool
}

// mergeIters holds merges that scans handed back (see recycle).
var mergeIters = sync.Pool{New: func() any { return new(mergeIter) }}

type mergeSrc interface {
	Next() bool
	Key() []byte
	Value() []byte
	entryKind() kind
	Err() error
	priority() int // higher wins on equal keys
}

// memSrc is one memtable's entries in the current range.
type memSrc struct {
	mem     *skiplist
	entries []memEntry
	i       int
	prio    int
}

func (m *memSrc) Next() bool      { m.i++; return m.i < len(m.entries) }
func (m *memSrc) Key() []byte     { return m.entries[m.i].key }
func (m *memSrc) Value() []byte   { return m.entries[m.i].value }
func (m *memSrc) entryKind() kind { return m.entries[m.i].kind }
func (m *memSrc) Err() error      { return nil }
func (m *memSrc) priority() int   { return m.prio }

type srcHeap []mergeSrc

func (h srcHeap) Len() int { return len(h) }
func (h srcHeap) Less(i, j int) bool {
	c := bytes.Compare(h[i].Key(), h[j].Key())
	if c != 0 {
		return c < 0
	}
	return h[i].priority() > h[j].priority()
}
func (h srcHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *srcHeap) Push(x interface{}) { *h = append(*h, x.(mergeSrc)) }
func (h *srcHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// addMem adds a memtable to the merge, older than those added before
// and newer than every table, reusing the entry buffer a recycled merge
// kept in that slot.
func (m *mergeIter) addMem(mem *skiplist) {
	n := len(m.mems)
	m.mems = slices.Grow(m.mems, 1)[:n+1]
	m.mems[n].mem, m.mems[n].prio = mem, 1<<30-n
}

// arm adds the SSTables (oldest first) to the merge, which is then
// positioned nowhere until the first seek.
func (m *mergeIter) arm(tables []*table) {
	for i, t := range tables {
		// Skipping a block never emits anything — it only removes
		// candidate versions from the merge. That is safe when the
		// skipped versions are shadowed by a newer source (the newer
		// version wins either way) or absent elsewhere (the zone says
		// they miss the window). The one hazard is an OLDER table
		// holding a stale version of a key whose newest put lives in
		// the skipped block, so the tables older than t veto a skip
		// over their key span. Memtables and later tables are always
		// newer and never need a veto.
		m.tables = append(m.tables, tableIter{t: t, bi: -1, older: tables[:i], escape: m.escape, direct: m.direct})
	}
}

// seek moves the merge to range kr, dropping what remains of the
// previous one. The ranges of a run ascend, each starting at or after
// the previous one's end, so each table walks on from where it stopped
// (see tableIter.seek); any other range repositions each table it
// reaches. An empty range yields nothing and moves nothing.
func (m *mergeIter) seek(kr KeyRange) {
	m.h = m.h[:0]
	if m.err != nil || (kr.Start != nil && kr.End != nil && bytes.Compare(kr.Start, kr.End) >= 0) {
		return
	}
	forward := !m.open && kr.Start != nil && bytes.Compare(kr.Start, m.high) >= 0
	if kr.End == nil {
		m.open = true
	} else if bytes.Compare(kr.End, m.high) > 0 {
		m.high = kr.End
	}
	for i := range m.mems {
		s := &m.mems[i]
		s.entries, s.i = s.mem.appendEntries(s.entries[:0], kr), -1
		if s.Next() {
			m.h = append(m.h, s)
		}
	}
	for i := range m.tables {
		s := &m.tables[i]
		// Skip tables whose key span misses the range entirely, and those
		// whose prefix summary proves they hold none of its keys.
		if len(s.t.index) == 0 || (kr.Start != nil && bytes.Compare(s.t.lastKey, kr.Start) < 0) ||
			(kr.End != nil && bytes.Compare(s.t.firstKey(), kr.End) >= 0) || s.t.lacks(kr) {
			continue
		}
		s.seek(kr, forward)
		if s.Next() {
			m.h = append(m.h, s)
		} else if err := s.Err(); err != nil {
			m.err = err
			return
		}
	}
	heap.Init(&m.h)
}

// nextRaw advances to the next winning entry, including tombstones.
func (m *mergeIter) nextRaw() bool {
	if m.err != nil {
		return false
	}
	if len(m.h) == 0 {
		return false
	}
	src := m.h[0]
	// Capped, so a caller's append copies instead of overwriting the next entry.
	k, v := src.Key(), src.Value()
	m.key, m.value, m.knd = k[:len(k):len(k)], v[:len(v):len(v)], src.entryKind()
	// Advance the winner and every lower-priority duplicate.
	m.advanceAll(m.key)
	return m.err == nil
}

// advanceAll pops/advances every source currently positioned at key.
func (m *mergeIter) advanceAll(key []byte) {
	for len(m.h) > 0 && bytes.Equal(m.h[0].Key(), key) {
		src := m.h[0]
		if src.Next() {
			heap.Fix(&m.h, 0)
		} else {
			if err := src.Err(); err != nil {
				m.err = err
				return
			}
			heap.Pop(&m.h)
		}
	}
}

// Next implements Iterator, skipping tombstones.
func (m *mergeIter) Next() bool {
	for m.nextRaw() {
		if m.raw || m.knd != kindDelete {
			return true
		}
	}
	return false
}

func (m *mergeIter) Key() []byte   { return m.key }
func (m *mergeIter) Value() []byte { return m.value }
func (m *mergeIter) kind() kind    { return m.knd }
func (m *mergeIter) Err() error    { return m.err }

// Close releases the iterator's blocks and table pins; it is idempotent.
func (m *mergeIter) Close() error {
	for i := range m.tables {
		m.tables[i].release()
	}
	releaseTables(m.pins)
	m.pins = m.pins[:0]
	return nil
}

// recycle closes the merge and hands it back for region.snapshot. Only
// the scan that owns it calls it, once it holds no view of a pair, and
// then never touches it: a later Close would release another scan's pins.
func (m *mergeIter) recycle() {
	m.reset()
	mergeIters.Put(m)
}

// reset closes the merge and drops every block, memtable entry and
// table it points at, keeping its slices: a pooled merge pins nothing.
func (m *mergeIter) reset() {
	m.Close()
	mems := m.mems[:cap(m.mems)]
	for i := range mems {
		clear(mems[i].entries[:cap(mems[i].entries)])
		mems[i] = memSrc{entries: mems[i].entries[:0]}
	}
	clear(m.tables[:cap(m.tables)])
	clear(m.pins[:cap(m.pins)])
	clear(m.h[:cap(m.h)])
	*m = mergeIter{mems: m.mems[:0], tables: m.tables[:0], pins: m.pins[:0], h: m.h[:0]}
}
