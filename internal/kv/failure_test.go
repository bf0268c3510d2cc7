package kv

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Failure-injection tests: the store must fail loudly (never silently
// return wrong data) when on-disk structures are damaged, and recover
// cleanly from torn writes.

func TestCorruptSSTableMagic(t *testing.T) {
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

	// Smash the footer magic of the SSTable.
	matches, _ := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	if len(matches) == 0 {
		t.Fatal("no sstable written")
	}
	f, err := os.OpenFile(matches[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat()
	f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, st.Size()-8)
	f.Close()

	if _, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil); err == nil {
		t.Fatal("corrupt sstable should fail to open")
	}
}

func TestCorruptBlockPayload(t *testing.T) {
	dir := t.TempDir()
	r, _ := openRegion(0, dir, Options{Codec: "gzip"}.withDefaults(), nil, nil)
	for i := 0; i < 2000; i++ {
		r.Put([]byte(fmt.Sprintf("k-%05d", i)), []byte("value-payload-value-payload"))
	}
	r.flush()
	r.Close()

	matches, _ := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	f, _ := os.OpenFile(matches[0], os.O_RDWR, 0)
	// Corrupt bytes near the start of the file (inside a data block).
	f.WriteAt([]byte("XXXXXXXXXXXXXXXX"), 10)
	f.Close()

	r2, err := openRegion(0, dir, Options{Codec: "gzip"}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err) // footer/index intact: open succeeds
	}
	defer r2.Close()
	it := r2.Scan(KeyRange{})
	for it.Next() {
		// Iterate through; a gzip block with damaged bytes must surface
		// an error rather than silently yielding garbage.
	}
	if it.Err() == nil {
		t.Fatal("scan over corrupt compressed block should report an error")
	}
}

func TestCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	r, _ := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	r.Put([]byte("k"), []byte("v"))
	r.flush()
	r.Close()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil); err == nil {
		t.Fatal("corrupt manifest should fail to open")
	}
}

func TestMissingSSTableFile(t *testing.T) {
	dir := t.TempDir()
	r, _ := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	for i := 0; i < 100; i++ {
		r.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte("v"))
	}
	r.flush()
	r.Close()
	matches, _ := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	os.Remove(matches[0])
	if _, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil); err == nil {
		t.Fatal("missing sstable should fail to open")
	}
}

func TestWALCorruptMiddleRecord(t *testing.T) {
	dir := t.TempDir()
	r, _ := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	for i := 0; i < 50; i++ {
		r.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte("v"))
	}
	r.mu.Lock()
	walPath := r.walPath()
	r.log.close()
	r.closed = true
	r.mu.Unlock()

	// Flip a byte in the middle of the WAL: replay must stop there (the
	// prefix stays intact, the suffix is discarded).
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	os.WriteFile(walPath, data, 0o644)

	r2, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	n := 0
	it := r2.Scan(KeyRange{})
	for it.Next() {
		n++
	}
	if n == 0 || n >= 50 {
		t.Fatalf("recovered %d records, want a proper prefix (0 < n < 50)", n)
	}
}

func TestEmptyRegionOperations(t *testing.T) {
	r, err := openRegion(0, t.TempDir(), Options{}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Get([]byte("missing")); err != ErrNotFound {
		t.Fatalf("Get on empty region: %v", err)
	}
	it := r.Scan(KeyRange{})
	if it.Next() {
		t.Fatal("empty region scan yields rows")
	}
	if err := r.flush(); err != nil {
		t.Fatalf("empty flush: %v", err)
	}
	if err := r.compact(); err != nil {
		t.Fatalf("empty compact: %v", err)
	}
}

func TestClosedRegionRejectsOps(t *testing.T) {
	r, _ := openRegion(0, t.TempDir(), Options{}.withDefaults(), nil, nil)
	r.Close()
	if err := r.Put([]byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := r.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
}

func TestLargeValues(t *testing.T) {
	// Values far larger than a block must round-trip (a trajectory's
	// compressed GPS list can exceed the 4 KiB block target).
	r, _ := openRegion(0, t.TempDir(), Options{}.withDefaults(), nil, nil)
	defer r.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := r.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	r.flush()
	got, err := r.Get([]byte("big"))
	if err != nil || len(got) != len(big) {
		t.Fatalf("big value: %d bytes, %v", len(got), err)
	}
	for i := range got {
		if got[i] != big[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}
