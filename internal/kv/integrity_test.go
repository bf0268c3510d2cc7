package kv

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Integrity tests: injectable disk faults (FaultFS), end-to-end checksum
// verification, orphan cleanup, and the scrubber.

// flipByte damages one byte of the file at path (offset counted from
// the start when off >= 0, from the end when negative).
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if off < 0 {
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		off += st.Size()
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// firstSST returns the first live SSTable in a region directory.
func firstSST(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no sstable in %s (err %v)", dir, err)
	}
	return matches[0]
}

// TestFsyncErrorDuringFlush: an fsync failure while building an SSTable
// must surface as a flush error, never as a silent success, and the
// aborted build must not leave a table behind; the WAL keeps the data.
func TestFsyncErrorDuringFlush(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{}, 1)
	ffs.Add(FaultRule{Pattern: "*.tmp", Op: OpSync, Kind: FaultErr, Prob: 1})
	r, err := openRegion(0, dir, Options{FS: ffs}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := r.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.flush(); !errors.Is(err, ErrInjected) {
		t.Fatalf("flush under failing fsync = %v, want ErrInjected", err)
	}
	r.Close()
	if matches, _ := filepath.Glob(filepath.Join(dir, "sst-*.sst")); len(matches) != 0 {
		t.Fatalf("failed flush left tables: %v", matches)
	}

	// Clear the fault and reopen: everything replays from the WAL.
	ffs.Clear()
	r2, err := openRegion(0, dir, Options{FS: ffs}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for i := 0; i < 100; i++ {
		if v, err := r2.Get([]byte(fmt.Sprintf("k-%03d", i))); err != nil || string(v) != "v" {
			t.Fatalf("key %d after recovery: %q, %v", i, v, err)
		}
	}
}

// TestTornSSTableWrite: writes torn mid-SSTable (half the bytes land,
// then the device errors) fail the flush even after the scheduler's
// bounded retries; recovery comes from the WAL. (The fault is
// persistent — a transient tear is absorbed by flush retry now, see
// TestFlushRetriesTransientFsyncError.)
func TestTornSSTableWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{}, 2)
	ffs.Add(FaultRule{Pattern: "*.tmp", Op: OpWrite, Kind: FaultTorn, Prob: 1})
	r, err := openRegion(0, dir, Options{FS: ffs}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		r.Put([]byte(fmt.Sprintf("k-%05d", i)), []byte("torn-write-payload"))
	}
	if err := r.flush(); !errors.Is(err, ErrInjected) {
		t.Fatalf("flush under torn write = %v, want ErrInjected", err)
	}
	r.Close()

	ffs.Clear()
	r2, err := openRegion(0, dir, Options{FS: ffs}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	n := 0
	it := r2.Scan(KeyRange{})
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil || n != 500 {
		t.Fatalf("recovered %d keys (err %v), want 500", n, err)
	}
}

// TestRenameDropOrphansCleaned: losing the tmp→final rename strands a
// .tmp file; region open must delete it (counting OrphansRemoved) and
// recover the data from the WAL.
func TestRenameDropOrphansCleaned(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{}, 3)
	ffs.Add(FaultRule{Pattern: "*.tmp", Op: OpRename, Kind: FaultDrop, Prob: 1})
	r, err := openRegion(0, dir, Options{FS: ffs}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		r.Put([]byte(fmt.Sprintf("k-%05d", i)), []byte("v"))
	}
	if err := r.flush(); err == nil {
		t.Fatal("flush succeeded despite dropped rename")
	}
	r.Close()
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(matches) == 0 {
		t.Fatal("dropped rename should strand a .tmp file")
	}

	ffs.Clear()
	var met Metrics
	r2, err := openRegion(0, dir, Options{FS: ffs}.withDefaults(), nil, &met)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(matches) != 0 {
		t.Fatalf("orphans survived reopen: %v", matches)
	}
	if met.OrphansRemoved == 0 {
		t.Fatal("OrphansRemoved not counted")
	}
	for i := 0; i < 200; i++ {
		if v, err := r2.Get([]byte(fmt.Sprintf("k-%05d", i))); err != nil || string(v) != "v" {
			t.Fatalf("key %d after recovery: %q, %v", i, v, err)
		}
	}
}

// TestOrphanCleanupOnOpen: stray files not referenced by the manifest
// (leftovers of a crash between build and manifest commit) are removed
// at open without touching live tables.
func TestOrphanCleanupOnOpen(t *testing.T) {
	dir := t.TempDir()
	r, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte("v"))
	}
	r.flush()
	r.Close()

	for _, junk := range []string{"sst-999999.sst", "sst-000123.sst.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("partial garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var met Metrics
	r2, err := openRegion(0, dir, Options{}.withDefaults(), nil, &met)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if met.OrphansRemoved != 2 {
		t.Fatalf("OrphansRemoved = %d, want 2", met.OrphansRemoved)
	}
	for _, junk := range []string{"sst-999999.sst", "sst-000123.sst.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, junk)); !os.IsNotExist(err) {
			t.Fatalf("%s not removed", junk)
		}
	}
	for i := 0; i < 50; i++ {
		if v, err := r2.Get([]byte(fmt.Sprintf("k-%03d", i))); err != nil || string(v) != "v" {
			t.Fatalf("key %d after cleanup: %q, %v", i, v, err)
		}
	}
}

// TestTransientReadFaultRetried: a bit-flip that does not repeat (a bus
// or cable glitch rather than damaged media) is absorbed by the read
// retry — the caller sees clean data and no corruption is declared.
func TestTransientReadFaultRetried(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{}, 4)
	var met Metrics
	r, err := openRegion(0, dir, Options{FS: ffs, BlockCacheBytes: -1}.withDefaults(), nil, &met)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 200; i++ {
		r.Put([]byte(fmt.Sprintf("k-%05d", i)), []byte(fmt.Sprintf("v-%d", i)))
	}
	if err := r.flush(); err != nil {
		t.Fatal(err)
	}

	// Arm after the flush so only data-block reads are hit: the next two
	// reads of the block come back flipped, the third is clean.
	ffs.Add(FaultRule{Pattern: "*.sst", Op: OpRead, Kind: FaultBitFlip, Prob: 1, Count: 2})
	if v, err := r.Get([]byte("k-00000")); err != nil || string(v) != "v-0" {
		t.Fatalf("Get through transient fault = %q, %v", v, err)
	}
	if met.ReadRetries != 2 {
		t.Fatalf("ReadRetries = %d, want 2", met.ReadRetries)
	}
	if met.CorruptionsDetected != 0 {
		t.Fatalf("transient fault declared corruption: %d", met.CorruptionsDetected)
	}
	if ffs.Injected() != 2 {
		t.Fatalf("Injected = %d, want 2", ffs.Injected())
	}
}

// TestBitFlipRF0TypedError: persistent on-disk damage to the only copy
// must surface as a typed ErrCorruptBlock — never as silently wrong
// data — and the region is flagged corrupt with the damaged table left
// in place, while its undamaged tables keep serving.
func TestBitFlipRF0TypedError(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCluster(dir, ClusterOptions{
		Options: Options{BlockCacheBytes: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two flushes, two tables: the first (h-keys) stays healthy, the
	// second (a-keys) is damaged below.
	for i := 0; i < 30; i++ {
		put(c, []byte(fmt.Sprintf("h-key-%05d", i)), []byte("v"))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := put(c, []byte(fmt.Sprintf("a-key-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	ssts, err := filepath.Glob(filepath.Join(dir, "region-0000", "sst-*.sst"))
	if err != nil || len(ssts) != 2 {
		t.Fatalf("tables = %v (err %v), want 2", ssts, err)
	}
	flipByte(t, ssts[1], 10)

	scanErr := ScanRange(bg, c, KeyRange{}, func(k, v []byte) bool {
		if string(v) != "v" {
			t.Fatalf("corrupt value returned as data: %q=%q", k, v)
		}
		return true
	})
	var cb *ErrCorruptBlock
	if !errors.As(scanErr, &cb) {
		t.Fatalf("scan over damaged region = %v, want *ErrCorruptBlock", scanErr)
	}
	if !errors.Is(scanErr, ErrCorrupt) || cb.Path == "" {
		t.Fatalf("corrupt error not typed/located: %v", scanErr)
	}

	// The undamaged table still serves.
	if v, err := c.GetCtx(bg, []byte("h-key-00000")); err != nil || string(v) != "v" {
		t.Fatalf("healthy table after corruption elsewhere: %q, %v", v, err)
	}

	// Scrub finds it too and reports it, and the admin state shows the
	// corrupt region; the damaged table stays where it was.
	if err := c.Scrub(context.Background()); !errors.As(err, &cb) {
		t.Fatalf("Scrub at RF=0 = %v, want *ErrCorruptBlock", err)
	}
	st := c.ScrubState()
	if st.CorruptNodes != 1 || st.Runs != 1 || st.BlocksScrubbed == 0 {
		t.Fatalf("scrub state = %+v", st)
	}
	if m := c.Metrics(); m.CorruptionsDetected == 0 {
		t.Fatal("CorruptionsDetected not counted")
	}
	if _, err := os.Stat(cb.Path); err != nil {
		t.Fatalf("damaged table moved out of the region: %v", err)
	}
}

// TestScrubLoopBackground: a cluster opened with ScrubInterval runs
// scrub passes on its own and shuts down cleanly.
func TestScrubLoopBackground(t *testing.T) {
	c, err := OpenCluster(t.TempDir(), ClusterOptions{
		ScrubInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		put(c, []byte(fmt.Sprintf("%c-key-%05d", "ahq"[i%3], i)), []byte("v"))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Metrics().ScrubRuns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background scrub never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptFooterFailsOpen: damage to the footer CRC region (not the
// magic) is caught by the footer checksum at open.
func TestCorruptFooterFailsOpen(t *testing.T) {
	dir := t.TempDir()
	r, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte("v"))
	}
	r.flush()
	r.Close()

	// Damage an offset field inside the footer: the magic stays intact,
	// only the CRC can catch this.
	flipByte(t, firstSST(t, dir), -60)
	_, err = openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	var cb *ErrCorruptBlock
	if !errors.As(err, &cb) {
		t.Fatalf("open with damaged footer = %v, want *ErrCorruptBlock", err)
	}
}

// TestFaultFSInjectionAccounting: rules fire per-op with deterministic
// seeding, honor Count exhaustion, and Clear disarms them.
func TestFaultFSInjectionAccounting(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{}, 42)
	ffs.Add(FaultRule{Pattern: "*.dat", Op: OpCreate, Kind: FaultErr, Prob: 1, Count: 2})
	for i := 0; i < 2; i++ {
		if _, err := ffs.Create(filepath.Join(dir, "x.dat")); !errors.Is(err, ErrInjected) {
			t.Fatalf("create %d = %v, want ErrInjected", i, err)
		}
	}
	f, err := ffs.Create(filepath.Join(dir, "x.dat"))
	if err != nil {
		t.Fatalf("rule not exhausted after Count: %v", err)
	}
	f.Close()
	if got := ffs.Injected(); got != 2 {
		t.Fatalf("Injected = %d, want 2", got)
	}
	// Other names and other ops are untouched.
	g, err := ffs.Create(filepath.Join(dir, "y.log"))
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	ffs.Add(FaultRule{Pattern: "*.log", Op: OpRemove, Kind: FaultErr, Prob: 1})
	if err := ffs.Remove(filepath.Join(dir, "y.log")); !errors.Is(err, ErrInjected) {
		t.Fatalf("remove = %v, want ErrInjected", err)
	}
	ffs.Clear()
	if err := ffs.Remove(filepath.Join(dir, "y.log")); err != nil {
		t.Fatalf("remove after Clear = %v", err)
	}
}
