package kv

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// Tests for the batched group-commit write path: WriteBatch / Apply,
// the background flusher with frozen memtables, multi-WAL crash
// recovery, and the BlockCacheBytes sentinel.

func TestWriteBatchApplyAndGet(t *testing.T) {
	c, err := OpenCluster(t.TempDir(), ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var b WriteBatch
	for i := 0; i < 300; i++ {
		b.Put([]byte(fmt.Sprintf("%c-key-%03d", 'a'+i%26, i)), []byte(fmt.Sprintf("v-%d", i)))
	}
	if b.Len() != 300 {
		t.Fatalf("Len = %d, want 300", b.Len())
	}
	if err := c.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		v, err := c.GetCtx(bg, []byte(fmt.Sprintf("%c-key-%03d", 'a'+i%26, i)))
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("Get key %d = %q, %v", i, v, err)
		}
	}

	// Later mutations in a batch win, including delete-then-put and
	// put-then-delete on the same key.
	var b2 WriteBatch
	b2.Put([]byte("a-key-000"), []byte("first"))
	b2.Delete([]byte("a-key-000"))
	b2.Put([]byte("a-key-000"), []byte("final"))
	b2.Put([]byte("b-key-001"), []byte("doomed"))
	b2.Delete([]byte("b-key-001"))
	if err := c.ApplyCtx(bg, &b2); err != nil {
		t.Fatal(err)
	}
	if v, err := c.GetCtx(bg, []byte("a-key-000")); err != nil || string(v) != "final" {
		t.Fatalf("within-batch overwrite: %q, %v", v, err)
	}
	if _, err := c.GetCtx(bg, []byte("b-key-001")); err != ErrNotFound {
		t.Fatalf("within-batch delete: %v", err)
	}

	// Scans see batch writes, in key order.
	var keys []string
	err = ScanRange(bg, c, KeyRange{Start: []byte("c"), End: []byte("d")}, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("scan over batch writes found nothing")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order: %q >= %q", keys[i-1], keys[i])
		}
	}
}

func TestApplyGroupCommitMetrics(t *testing.T) {
	c, err := OpenCluster(t.TempDir(), ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var b WriteBatch
	for i := 0; i < 90; i++ {
		b.Put([]byte(fmt.Sprintf("%c-%03d", 'a'+i%26, i)), []byte("v"))
	}
	if err := c.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.GroupCommits == 0 || m.GroupCommitRecords != 90 {
		t.Fatalf("GroupCommits=%d GroupCommitRecords=%d, want >0 and 90", m.GroupCommits, m.GroupCommitRecords)
	}
	// One WAL sync per region batch — the group commit — not per record.
	if m.WALSyncs != m.GroupCommits {
		t.Fatalf("WALSyncs=%d != GroupCommits=%d", m.WALSyncs, m.GroupCommits)
	}
	if m.WALSyncBytes == 0 || m.WALSyncBytes != m.BytesWritten {
		t.Fatalf("WALSyncBytes=%d BytesWritten=%d", m.WALSyncBytes, m.BytesWritten)
	}
}

func TestMultiGet(t *testing.T) {
	c, err := OpenCluster(t.TempDir(), ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var b WriteBatch
	for i := 0; i < 60; i++ {
		b.Put([]byte(fmt.Sprintf("%c-mg-%03d", 'a'+i%26, i)), []byte(fmt.Sprintf("v-%d", i)))
	}
	if err := c.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	c.Flush() // half the probes hit SSTables, half the fresh memtable
	var b2 WriteBatch
	for i := 60; i < 90; i++ {
		b2.Put([]byte(fmt.Sprintf("%c-mg-%03d", 'a'+i%26, i)), []byte(fmt.Sprintf("v-%d", i)))
	}
	if err := c.ApplyCtx(bg, &b2); err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 0, 100)
	for i := 0; i < 100; i++ { // 90 present, 10 missing
		keys = append(keys, []byte(fmt.Sprintf("%c-mg-%03d", 'a'+i%26, i)))
	}
	vals, err := c.MultiGetCtx(bg, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		if string(vals[i]) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("MultiGet[%d] = %q", i, vals[i])
		}
	}
	for i := 90; i < 100; i++ {
		if vals[i] != nil {
			t.Fatalf("MultiGet[%d] = %q, want nil for missing key", i, vals[i])
		}
	}
}

// pauseFlusher parks (or resumes) a region's background flusher so a
// test can hold frozen memtables on the queue deterministically.
func pauseFlusher(r *region, paused bool) {
	r.mu.Lock()
	r.flushPaused = paused
	r.cond.Broadcast()
	r.mu.Unlock()
}

func TestGetScanWithQueuedImmutableMemtable(t *testing.T) {
	var met Metrics
	// MemtableBytes 1: every write freezes the memtable, so reads must
	// come from the imm queue; FlushQueue large so nothing stalls while
	// the flusher is paused.
	r, err := openRegion(0, t.TempDir(), Options{MemtableBytes: 1, FlushQueue: 1000}.withDefaults(), nil, &met)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pauseFlusher(r, true)

	for i := 0; i < 50; i++ {
		if err := r.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite and tombstone keys whose old versions sit in older
	// frozen memtables.
	if err := r.Put([]byte("k-010"), []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete([]byte("k-020")); err != nil {
		t.Fatal(err)
	}
	if r.immCount() == 0 {
		t.Fatal("no frozen memtables queued; test is vacuous")
	}

	check := func(stage string) {
		t.Helper()
		if v, err := r.Get([]byte("k-042")); err != nil || string(v) != "v-42" {
			t.Fatalf("%s: Get k-042 = %q, %v", stage, v, err)
		}
		if v, err := r.Get([]byte("k-010")); err != nil || string(v) != "updated" {
			t.Fatalf("%s: Get k-010 = %q, %v", stage, v, err)
		}
		if _, err := r.Get([]byte("k-020")); err != ErrNotFound {
			t.Fatalf("%s: Get k-020 = %v, want ErrNotFound", stage, err)
		}
		n := 0
		it := r.Scan(KeyRange{})
		for it.Next() {
			n++
		}
		if err := it.Err(); err != nil {
			t.Fatalf("%s: scan: %v", stage, err)
		}
		if n != 49 { // 50 - 1 deleted
			t.Fatalf("%s: scan saw %d keys, want 49", stage, n)
		}
	}
	check("queued")

	pauseFlusher(r, false)
	if err := r.flush(); err != nil {
		t.Fatal(err)
	}
	if r.immCount() != 0 {
		t.Fatalf("immCount = %d after flush", r.immCount())
	}
	if met.Flushes == 0 {
		t.Fatal("background flusher never flushed")
	}
	check("flushed")
}

// TestCloseDrainsFlusher: a region Close waits for frozen memtables to
// reach disk instead of abandoning the flush queue.
func TestCloseDrainsFlusher(t *testing.T) {
	dir := t.TempDir()
	r, err := openRegion(0, dir, Options{MemtableBytes: 4 << 10}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 512)
	for i := 0; i < 64; i++ { // ~32 KiB: several 4 KiB memtable freezes
		if err := r.Put([]byte(fmt.Sprintf("k-%03d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(r.imm); got != 0 {
		t.Fatalf("%d frozen memtables abandoned by Close", got)
	}
	ssts, _ := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	if len(ssts) == 0 {
		t.Fatal("Close flushed nothing to disk")
	}
}

func TestBatchCrashRecoveryAcrossRegions(t *testing.T) {
	dir := t.TempDir()
	opts := ClusterOptions{}
	c, err := OpenCluster(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Seed old versions and flush them to SSTables, so the batch's
	// tombstones (the upsert's delete-before-write) have something to
	// shadow on disk.
	var seed WriteBatch
	for i := 0; i < 30; i++ {
		seed.Put([]byte(fmt.Sprintf("%c-old-%03d", 'a'+i%26, i)), []byte("old"))
	}
	if err := c.ApplyCtx(bg, &seed); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Pause the flusher so the batch stays memtable-only, then apply a
	// batch of puts plus upsert-style tombstones.
	pauseFlusher(c.r, true)
	var b WriteBatch
	for i := 0; i < 30; i++ {
		b.Delete([]byte(fmt.Sprintf("%c-old-%03d", 'a'+i%26, i)))
		b.Put([]byte(fmt.Sprintf("%c-new-%03d", 'a'+i%26, i)), []byte(fmt.Sprintf("n-%d", i)))
	}
	if err := c.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash: drop the WAL handle without flushing memtables.
	c.r.mu.Lock()
	c.r.log.close()
	c.r.closed = true
	c.r.cond.Broadcast()
	c.r.mu.Unlock()

	c2, err := OpenCluster(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < 30; i++ {
		v, err := c2.GetCtx(bg, []byte(fmt.Sprintf("%c-new-%03d", 'a'+i%26, i)))
		if err != nil || string(v) != fmt.Sprintf("n-%d", i) {
			t.Fatalf("recovered put %d = %q, %v", i, v, err)
		}
		if _, err := c2.GetCtx(bg, []byte(fmt.Sprintf("%c-old-%03d", 'a'+i%26, i))); err != ErrNotFound {
			t.Fatalf("recovered tombstone %d: err = %v, want ErrNotFound", i, err)
		}
	}
}

func TestCrashRecoveryMultipleWALs(t *testing.T) {
	// Several frozen-but-unflushed memtables leave several wal-*.log
	// files; reopening must replay all of them, not just the newest.
	dir := t.TempDir()
	opts := Options{MemtableBytes: 1, FlushQueue: 1000}.withDefaults()
	r, err := openRegion(0, dir, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pauseFlusher(r, true)
	for i := 0; i < 20; i++ { // every put rotates the WAL
		if err := r.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	r.log.close()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()

	logs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(logs) < 2 {
		t.Fatalf("expected multiple WAL files, got %d", len(logs))
	}
	r2, err := openRegion(0, dir, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for i := 0; i < 20; i++ {
		v, err := r2.Get([]byte(fmt.Sprintf("k-%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("recovered k-%03d = %q, %v", i, v, err)
		}
	}
}

// crashRegion simulates a crash: the WAL handle is dropped without
// flushing memtables, and the region is marked closed so goroutines stop.
func crashRegion(r *region) string {
	r.mu.Lock()
	walPath := r.walPath()
	r.log.close()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	return walPath
}

func TestBatchTornTailMidBatch(t *testing.T) {
	dir := t.TempDir()
	r, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Batch A is group-committed (synced, acknowledged); batch B is torn.
	var a []mutation
	for i := 0; i < 10; i++ {
		a = append(a, mutation{kindPut, []byte(fmt.Sprintf("a-%03d", i)), []byte("committed-value")})
	}
	if err := r.applyBatch(a); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	walPath := r.walPath()
	r.mu.Unlock()
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	sizeAfterA := st.Size()

	// Batch B upserts: tombstones for A's keys plus replacement puts. If a
	// torn tail replayed a prefix of B, a tombstone could land without its
	// matching put, losing an acknowledged row from batch A's index.
	var b []mutation
	for i := 0; i < 10; i++ {
		b = append(b, mutation{kindDelete, []byte(fmt.Sprintf("a-%03d", i)), nil})
		b = append(b, mutation{kindPut, []byte(fmt.Sprintf("b-%03d", i)), []byte("torn-value")})
	}
	if err := r.applyBatch(b); err != nil {
		t.Fatal(err)
	}
	crashRegion(r)

	// Tear the WAL mid-batch, cutting inside batch B's envelope: the whole
	// batch must be dropped on replay — a batch is atomic, never a prefix.
	st, err = os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, sizeAfterA+(st.Size()-sizeAfterA)/2); err != nil {
		t.Fatal(err)
	}
	r2, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	n := 0
	it := r2.Scan(KeyRange{})
	for it.Next() {
		if string(it.Value()) != "committed-value" {
			t.Fatalf("replayed record %q has value %q from the torn batch", it.Key(), it.Value())
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if n != 10 {
		t.Fatalf("recovered %d records, want exactly batch A's 10 (torn batch B dropped whole)", n)
	}
	for i := 0; i < 10; i++ {
		if _, err := r2.Get([]byte(fmt.Sprintf("a-%03d", i))); err != nil {
			t.Fatalf("committed record a-%03d lost to the torn batch's tombstone prefix: %v", i, err)
		}
		if _, err := r2.Get([]byte(fmt.Sprintf("b-%03d", i))); err != ErrNotFound {
			t.Fatalf("torn batch record b-%03d partially replayed: %v", i, err)
		}
	}
}

func TestBatchWriteAfterTornTailRecovery(t *testing.T) {
	// Durability across a second crash: after recovering from a torn tail,
	// the garbage bytes must be truncated before the segment is reopened
	// for append — otherwise batches group-committed (synced and
	// acknowledged) after recovery sit behind the garbage and are silently
	// lost on the next restart.
	dir := t.TempDir()
	r, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a []mutation
	for i := 0; i < 10; i++ {
		a = append(a, mutation{kindPut, []byte(fmt.Sprintf("a-%03d", i)), []byte("va")})
	}
	if err := r.applyBatch(a); err != nil {
		t.Fatal(err)
	}
	var b []mutation
	for i := 0; i < 10; i++ {
		b = append(b, mutation{kindPut, []byte(fmt.Sprintf("b-%03d", i)), []byte("vb")})
	}
	if err := r.applyBatch(b); err != nil {
		t.Fatal(err)
	}
	walPath := crashRegion(r)
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, st.Size()-5); err != nil { // tear batch B
		t.Fatal(err)
	}

	r2, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var c []mutation
	for i := 0; i < 10; i++ {
		c = append(c, mutation{kindPut, []byte(fmt.Sprintf("c-%03d", i)), []byte("vc")})
	}
	if err := r2.applyBatch(c); err != nil {
		t.Fatal(err)
	}
	crashRegion(r2)

	r3, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	for i := 0; i < 10; i++ {
		if v, err := r3.Get([]byte(fmt.Sprintf("a-%03d", i))); err != nil || string(v) != "va" {
			t.Fatalf("batch A record %d after second crash: %q, %v", i, v, err)
		}
		// Batch C was acknowledged as crash-durable after the torn-tail
		// recovery; losing it here means the tail was not truncated.
		if v, err := r3.Get([]byte(fmt.Sprintf("c-%03d", i))); err != nil || string(v) != "vc" {
			t.Fatalf("post-recovery batch C record %d lost after second crash: %q, %v", i, v, err)
		}
	}
}

func TestScanPinsTablesAcrossCompaction(t *testing.T) {
	// A scan snapshot pins its SSTables: background compaction may retire
	// them mid-scan, but the files must stay open (and on disk) until the
	// iterator closes — reads never hit a closed file.
	dir := t.TempDir()
	r, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	val := bytes.Repeat([]byte("x"), 1024) // multi-block tables
	const perTable, tables = 50, 3
	for ti := 0; ti < tables; ti++ {
		for i := 0; i < perTable; i++ {
			key := []byte(fmt.Sprintf("k-%d-%03d", ti, i))
			if err := r.Put(key, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.flush(); err != nil {
			t.Fatal(err)
		}
	}

	it := r.Scan(KeyRange{})
	for i := 0; i < 5; i++ { // mid-flight when the compaction lands
		if !it.Next() {
			t.Fatalf("scan exhausted early: %v", it.Err())
		}
	}
	if err := r.compact(); err != nil {
		t.Fatal(err)
	}
	if ssts, _ := filepath.Glob(filepath.Join(dir, "sst-*.sst")); len(ssts) != tables+1 {
		t.Fatalf("retired tables unlinked while a scan pins them: %d files, want %d", len(ssts), tables+1)
	}
	n := 5
	for it.Next() {
		if !bytes.Equal(it.Value(), val) {
			t.Fatalf("damaged value for %q after compaction", it.Key())
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatalf("scan across compaction: %v", err)
	}
	if n != perTable*tables {
		t.Fatalf("scan saw %d keys, want %d", n, perTable*tables)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	// The last pin is gone: the retired tables' files are now unlinked.
	if ssts, _ := filepath.Glob(filepath.Join(dir, "sst-*.sst")); len(ssts) != 1 {
		t.Fatalf("%d sstables on disk after iterator close, want 1", len(ssts))
	}
}

func TestReplayWALReusedBufferLargeLog(t *testing.T) {
	// >64 KiB of records crosses the replay reader's buffer; the shared
	// payload buffer must not corrupt earlier records' contents.
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-000000.log")
	l, err := openWAL(OSFS{}, path, false)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	var muts []mutation
	for i := 0; i < 400; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		// Varied sizes, some spanning a good chunk of the 64 KiB buffer.
		val := bytes.Repeat([]byte{byte(i)}, 37+(i%11)*211)
		want[string(key)] = val
		muts = append(muts, mutation{kindPut, key, val})
	}
	if _, err := l.appendBatch(muts); err != nil {
		t.Fatal(err)
	}
	if l.n < 128<<10 {
		t.Fatalf("log only %d bytes; want >128 KiB to cross the reader buffer", l.n)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	_, err = replayWAL(OSFS{}, path, func(k kind, key, value []byte) error {
		if k != kindPut {
			t.Fatalf("unexpected kind %d", k)
		}
		got[string(key)] = append([]byte(nil), value...) // fn must copy
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("record %q corrupted by buffer reuse", k)
		}
	}
}

func TestBlockCacheDisableSentinel(t *testing.T) {
	// 0 means the 32 MiB default; a negative value disables the cache.
	if got := (Options{}).withDefaults().BlockCacheBytes; got != 32<<20 {
		t.Fatalf("default BlockCacheBytes = %d, want 32 MiB", got)
	}
	if got := (Options{BlockCacheBytes: -1}).withDefaults().BlockCacheBytes; got >= 0 {
		t.Fatalf("negative sentinel rewritten to %d", got)
	}
	c, err := OpenCluster(t.TempDir(), ClusterOptions{Options: Options{BlockCacheBytes: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.r.cache != nil {
		t.Fatal("cache not disabled by negative BlockCacheBytes")
	}
	// Reads still work without a cache, and never count cache traffic.
	put(c, []byte("k"), []byte("v"))
	c.Flush()
	if v, err := c.GetCtx(bg, []byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get without cache = %q, %v", v, err)
	}
	if m := c.Metrics(); m.BlockCacheHits != 0 || m.BlockCacheMisses != 0 {
		t.Fatalf("disabled cache recorded traffic: %+v", m)
	}
}

func TestConcurrentApplyAndScan(t *testing.T) {
	// Race coverage for the background flusher: writers group-committing
	// while readers Get and Scan, with memtables small enough that
	// freezes, flushes and compactions all happen mid-flight.
	c, err := OpenCluster(t.TempDir(), ClusterOptions{Options: Options{MemtableBytes: 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches, perBatch = 4, 25, 20
	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for bi := 0; bi < batches; bi++ {
				var b WriteBatch
				for i := 0; i < perBatch; i++ {
					k := fmt.Sprintf("%c-w%d-%04d", 'a'+(bi*perBatch+i)%26, w, bi*perBatch+i)
					b.Put([]byte(k), []byte(fmt.Sprintf("val-%d-%d", w, bi)))
				}
				if err := c.ApplyCtx(bg, &b); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for rd := 0; rd < 2; rd++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.GetCtx(bg, []byte("a-w0-0000"))
				ScanRange(bg, c, KeyRange{Start: []byte("a"), End: []byte("c")}, func(k, v []byte) bool { return true })
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	total := 0
	err = ScanRange(bg, c, KeyRange{}, func(k, v []byte) bool {
		total++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != writers*batches*perBatch {
		t.Fatalf("scan found %d keys, want %d", total, writers*batches*perBatch)
	}
	c.Close()
}
