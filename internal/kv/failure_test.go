package kv

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"just/internal/replica"
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
	r, _ := openRegion(0, dir, Options{Compress: true}.withDefaults(), nil, nil)
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

	r2, err := openRegion(0, dir, Options{Compress: true}.withDefaults(), nil, nil)
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

// TestCorruptShippedBatch damages the first delivery of every shipped
// batch envelope on the replication channel. The applier must detect
// the CRC mismatch, reject the envelope without applying it, and
// re-request it from the retained log — replicas end up byte-correct
// and a failover read never observes the damage.
func TestCorruptShippedBatch(t *testing.T) {
	c := mustOpenRepl(t, 3, 1)
	defer c.Close()

	var fmu sync.Mutex
	seen := make(map[string]bool)
	c.SetShipFault(func(sub string, env *replica.Envelope) error {
		fmu.Lock()
		defer fmu.Unlock()
		k := fmt.Sprintf("%s/%d", sub, env.Seq)
		if !seen[k] {
			seen[k] = true
			env.Payload[len(env.Payload)/2] ^= 0xFF // first attempt arrives damaged
		}
		return nil
	})

	const n = 200
	for i := 0; i < n; i++ {
		if err := c.PutCtx(bg, spreadKey(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SyncReplicas(); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.ReplicaRejects == 0 {
		t.Fatal("no rejects recorded despite corrupting every first delivery")
	}
	if m.ReplicaApplies == 0 {
		t.Fatal("no applies recorded")
	}
	for _, st := range c.ReplicationState() {
		for _, nd := range st.Nodes {
			if nd.Lag != 0 {
				t.Fatalf("region %d server %d: lag %d after sync", st.Region, nd.Server, nd.Lag)
			}
		}
	}

	// Read every key off the replicas: kill each server in turn and
	// verify no corrupt value was ever applied.
	for srv := 0; srv < 3; srv++ {
		if err := c.KillServer(srv); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			v, err := c.GetCtx(bg, spreadKey(i))
			if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
				t.Fatalf("server %d down, key %d: %q, %v", srv, i, v, err)
			}
		}
		if err := c.ReviveServer(srv); err != nil {
			t.Fatal(err)
		}
		if err := c.SyncReplicas(); err != nil {
			t.Fatal(err)
		}
	}
}
