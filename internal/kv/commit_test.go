package kv

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the commit path: a group commit appends and fsyncs the WAL
// and inserts into the memtable holding walMu, not the region's mu, so
// reads never wait on a writer's disk sync and see a batch whole or not
// at all. None of them measures time: a read that blocks behind a
// parked sync shows as a hang, which go test's -timeout reports with
// the blocked goroutine's stack.

// parkFS parks File.Sync on WAL segments while armed: each parked sync
// sends on parked, then waits for a receive on release. synced counts
// the WAL syncs that have completed.
type parkFS struct {
	VFS
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
	synced  atomic.Int64
}

func newParkFS() *parkFS {
	return &parkFS{VFS: OSFS{}, parked: make(chan struct{}), release: make(chan struct{})}
}

func (p *parkFS) OpenAppend(path string) (File, error) {
	f, err := p.VFS.OpenAppend(path)
	if err != nil || !strings.HasPrefix(filepath.Base(path), "wal-") {
		return f, err
	}
	return &parkFile{File: f, fs: p}, nil
}

type parkFile struct {
	File
	fs *parkFS
}

func (f *parkFile) Sync() error {
	if f.fs.armed.Load() {
		f.fs.parked <- struct{}{}
		<-f.fs.release
	}
	err := f.File.Sync()
	f.fs.synced.Add(1)
	return err
}

// batchOf builds n puts of prefix-%03d with value v.
func batchOf(prefix string, n int, v string) []mutation {
	muts := make([]mutation, n)
	for i := range muts {
		muts[i] = mutation{kindPut, []byte(fmt.Sprintf("%s-%03d", prefix, i)), []byte(v)}
	}
	return muts
}

// scanAll returns every live pair in r as key -> value.
func scanAll(t *testing.T, r *region) map[string]string {
	t.Helper()
	it := r.Scan(KeyRange{})
	defer it.Close()
	out := map[string]string{}
	for it.Next() {
		out[string(it.Key())] = string(it.Value())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// parkCommit arms fs and starts applyBatch(muts) on r, returning once
// the commit is parked in its WAL sync; the commit's result arrives on
// the returned channel after a receive on fs.release.
func parkCommit(r *region, fs *parkFS, muts []mutation) <-chan error {
	fs.armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- r.applyBatch(muts) }()
	<-fs.parked
	fs.armed.Store(false)
	return done
}

func TestReadsDoNotWaitOnParkedWALSync(t *testing.T) {
	fs := newParkFS()
	r, err := openRegion(0, t.TempDir(), Options{FS: fs}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.applyBatch(batchOf("a", 20, "old")); err != nil {
		t.Fatal(err)
	}
	// The parked batch overwrites half of a and adds b.
	next := append(batchOf("a", 10, "new"), batchOf("b", 10, "new")...)
	done := parkCommit(r, fs, next)

	// While the commit sits in its fsync, holding walMu, reads return
	// and see the region as it was before the commit.
	got := scanAll(t, r)
	if len(got) != 20 {
		t.Fatalf("scan during a parked commit saw %d pairs, want 20", len(got))
	}
	for k, v := range got {
		if v != "old" {
			t.Fatalf("scan during a parked commit: %s = %q, want old", k, v)
		}
	}
	if v, err := r.Get([]byte("a-000")); err != nil || string(v) != "old" {
		t.Fatalf("Get during a parked commit: %q, %v", v, err)
	}
	if _, err := r.Get([]byte("b-000")); err != ErrNotFound {
		t.Fatalf("Get of an uncommitted key: %v, want ErrNotFound", err)
	}
	vals := make([][]byte, 2)
	if err := r.getBatch([][]byte{[]byte("a-005"), []byte("b-005")}, vals); err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "old" || vals[1] != nil {
		t.Fatalf("MultiGet during a parked commit: %q", vals)
	}

	fs.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got = scanAll(t, r)
	if len(got) != 30 {
		t.Fatalf("scan after the commit saw %d pairs, want 30", len(got))
	}
	for i := 0; i < 10; i++ {
		for _, k := range []string{fmt.Sprintf("a-%03d", i), fmt.Sprintf("b-%03d", i)} {
			if got[k] != "new" {
				t.Fatalf("after the commit %s = %q, want new", k, got[k])
			}
		}
	}
	if v, err := r.Get([]byte("b-009")); err != nil || string(v) != "new" {
		t.Fatalf("Get after the commit: %q, %v", v, err)
	}
}

func TestCloseWaitsForParkedCommit(t *testing.T) {
	fs := newParkFS()
	dir := t.TempDir()
	r, err := openRegion(0, dir, Options{FS: fs}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := parkCommit(r, fs, batchOf("k", 50, "v"))
	before := fs.synced.Load()
	closed := make(chan error, 1)
	go func() {
		err := r.Close()
		if err == nil && fs.synced.Load() == before {
			err = fmt.Errorf("Close returned before the parked commit's sync")
		}
		closed <- err
	}()
	// Let Close get past its flag and the flusher's exit, to the point
	// where only the parked commit holds it, then release the commit.
	for {
		r.mu.RLock()
		c := r.closed
		r.mu.RUnlock()
		if c {
			break
		}
		runtime.Gosched()
	}
	<-r.flusherDone
	fs.release <- struct{}{}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("the commit Close waited for: %v", err)
	}

	// The acknowledged batch replays on reopen.
	r2, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := scanAll(t, r2); len(got) != 50 {
		t.Fatalf("reopen replayed %d pairs, want 50", len(got))
	}
}

func TestConcurrentBatchesVisibleWholeOrNotAtAll(t *testing.T) {
	// Small memtables, so freezes, flushes and merges run beside the
	// readers; every batch rewrites one writer's n keys to a new version,
	// and both a scan and a MultiGet of those keys must read one version.
	r, err := openRegion(0, t.TempDir(), Options{MemtableBytes: 16 << 10, MaxTables: 2}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const writers, readers, n, batches = 2, 2, 40, 150
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 1; b <= batches; b++ {
				if err := r.applyBatch(batchOf(fmt.Sprintf("w%d", w), n, fmt.Sprintf("%06d", b))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	keys := make([][][]byte, writers)
	for w := range keys {
		for _, m := range batchOf(fmt.Sprintf("w%d", w), n, "") {
			keys[w] = append(keys[w], m.key)
		}
	}
	var rg sync.WaitGroup
	for i := 0; i < readers; i++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			last := make([]string, writers)
			for !stop.Load() {
				for w := 0; w < writers; w++ {
					p := fmt.Sprintf("w%d-", w)
					it := r.Scan(KeyRange{Start: []byte(p), End: []byte(fmt.Sprintf("w%d.", w))})
					var seen int
					var version string
					for it.Next() {
						if seen == 0 {
							version = string(it.Value())
						} else if !bytes.Equal(it.Value(), []byte(version)) {
							t.Errorf("writer %d: %s = %q beside version %q: a torn batch", w, it.Key(), it.Value(), version)
						}
						seen++
					}
					if err := it.Err(); err != nil {
						t.Error(err)
					}
					it.Close()
					if seen != 0 && seen != n {
						t.Errorf("writer %d: scan saw %d of a batch's %d keys", w, seen, n)
					}
					if version < last[w] {
						t.Errorf("writer %d: version went back from %s to %s", w, last[w], version)
					}
					last[w] = version
					vals := make([][]byte, n)
					if err := r.getBatch(keys[w], vals); err != nil {
						t.Error(err)
					}
					for i, v := range vals {
						if !bytes.Equal(v, vals[0]) {
							t.Errorf("writer %d: MultiGet read %s = %q beside %q: a torn batch", w, keys[w][i], v, vals[0])
							break
						}
					}
				}
				if t.Failed() {
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
	got := scanAll(t, r)
	if len(got) != writers*n {
		t.Fatalf("%d pairs after all commits, want %d", len(got), writers*n)
	}
	for k, v := range got {
		if v != fmt.Sprintf("%06d", batches) {
			t.Fatalf("%s = %q after all commits, want the last version", k, v)
		}
	}
}
