package kv

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fillRegion writes n moderately compressible rows keyed key-<base+i>.
func fillRegion(t *testing.T, r *region, base, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", base+i))
		v := []byte(fmt.Sprintf("value-%06d-%s", base+i, bytes.Repeat([]byte("city"), 64)))
		if err := r.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
}

func regionScanAll(t *testing.T, r *region) map[string]string {
	t.Helper()
	got := map[string]string{}
	it := r.Scan(KeyRange{})
	for it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	return got
}

// TestMixedCodecRegion: a region written under Codec "gzip" and
// reopened with Codec "lz4" must serve Gets and Scans across tables of
// both codecs, and a compaction must rewrite every block in the
// configured codec.
func TestMixedCodecRegion(t *testing.T) {
	dir := t.TempDir()

	// Era 1: gzip-compressed table.
	r, err := openRegion(0, dir, Options{Codec: "gzip"}.withDefaults(), newBlockCache(1<<20), &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	fillRegion(t, r, 0, 500)
	if err := r.flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Era 2: same directory, codec now lz4. The gzip-era table must stay
	// readable next to the new lz4 table.
	r, err = openRegion(0, dir, Options{Codec: "lz4"}.withDefaults(), newBlockCache(1<<20), &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fillRegion(t, r, 500, 500)
	if err := r.flush(); err != nil {
		t.Fatal(err)
	}

	r.mu.RLock()
	nTables := len(r.tables)
	codecs := map[uint8]bool{}
	for _, tbl := range r.tables {
		for _, h := range tbl.index {
			codecs[h.codec] = true
		}
	}
	r.mu.RUnlock()
	if nTables < 2 {
		t.Fatalf("want >= 2 tables before compaction, got %d", nTables)
	}
	if !codecs[blockCodecGzip] || !codecs[blockCodecLZ4] {
		t.Fatalf("want blocks of both codecs before compaction, got %v", codecs)
	}

	for _, i := range []int{0, 250, 499, 500, 750, 999} {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v, err := r.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("value-%06d-%s", i, bytes.Repeat([]byte("city"), 64))
		if string(v) != want {
			t.Fatalf("get %s across mixed codecs returned wrong value", k)
		}
	}
	if got := regionScanAll(t, r); len(got) != 1000 {
		t.Fatalf("mixed-codec scan saw %d rows, want 1000", len(got))
	}

	// Compaction rewrites everything in the configured codec.
	if err := r.compact(); err != nil {
		t.Fatal(err)
	}
	r.mu.RLock()
	nTables = len(r.tables)
	codecs = map[uint8]bool{}
	for _, tbl := range r.tables {
		for _, h := range tbl.index {
			codecs[h.codec] = true
		}
	}
	r.mu.RUnlock()
	if nTables != 1 {
		t.Fatalf("want 1 table after compaction, got %d", nTables)
	}
	if len(codecs) != 1 || !codecs[blockCodecLZ4] {
		t.Fatalf("want only lz4 blocks after compaction, got %v", codecs)
	}
	if got := regionScanAll(t, r); len(got) != 1000 {
		t.Fatalf("post-compaction scan saw %d rows, want 1000", len(got))
	}
}

// TestCodecScanEquality: the same rows written under gzip and lz4 must
// scan back byte-for-byte identical — the codec may change the disk
// format, never the data.
func TestCodecScanEquality(t *testing.T) {
	results := map[string]map[string]string{}
	for _, codec := range []string{"gzip", "lz4"} {
		r, err := openRegion(0, t.TempDir(), Options{Codec: codec}.withDefaults(), newBlockCache(1<<20), &Metrics{})
		if err != nil {
			t.Fatal(err)
		}
		fillRegion(t, r, 0, 800)
		if err := r.flush(); err != nil {
			t.Fatal(err)
		}
		results[codec] = regionScanAll(t, r)
		r.Close()
	}
	g, l := results["gzip"], results["lz4"]
	if len(g) != 800 || len(l) != 800 {
		t.Fatalf("scan sizes gzip=%d lz4=%d, want 800", len(g), len(l))
	}
	for k, v := range g {
		if l[k] != v {
			t.Fatalf("key %s differs between gzip and lz4 scans", k)
		}
	}
}

// TestBlockCacheChargesDecompressedSizeLZ4: same accounting invariant as
// TestBlockCacheChargesDecompressedSize, for the lz4 block codec.
func TestBlockCacheChargesDecompressedSizeLZ4(t *testing.T) {
	opts := Options{Codec: "lz4"}.withDefaults()
	r, err := openRegion(0, t.TempDir(), opts, newBlockCache(1<<20), &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	val := bytes.Repeat([]byte("z"), 2048)
	const n = 8
	for i := 0; i < n; i++ {
		if err := r.Put([]byte(fmt.Sprintf("k-%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.flush(); err != nil {
		t.Fatal(err)
	}

	it := r.Scan(KeyRange{})
	for it.Next() {
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()

	cache := r.cache
	cache.mu.Lock()
	used, blocks := cache.used, cache.ll.Len()
	cache.mu.Unlock()
	if blocks == 0 {
		t.Fatal("no blocks cached")
	}
	if used < int64(blocks)*2048 {
		t.Fatalf("cache charges %d bytes for %d blocks: accounting uses compressed size, not decompressed", used, blocks)
	}
}

// TestWALCompressedEnvelope: an lz4-enabled WAL wraps large payloads in
// compressed envelopes on disk, and replay inflates them transparently.
func TestWALCompressedEnvelope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(OSFS{}, path, true)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("trajectory-point;"), 200) // ~3.4 KiB, compressible
	muts := []mutation{
		{k: kindPut, key: []byte("traj-1"), value: big},
		{k: kindDelete, key: []byte("traj-0")},
	}
	if _, err := w.appendBatch(muts); err != nil {
		t.Fatal(err)
	}
	if err := w.append(kindPut, []byte("tiny"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	// The log on disk must actually be smaller than the raw batch, and
	// the first record's payload must carry the compressed tag.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) >= len(big) {
		t.Fatalf("wal is %d bytes, want < %d: envelope not compressed", len(raw), len(big))
	}
	if raw[8] != walCompressedTag {
		t.Fatalf("first payload byte = %#x, want walCompressedTag %#x", raw[8], walCompressedTag)
	}

	type rec struct {
		k   kind
		key string
		val string
	}
	var got []rec
	off, err := replayWAL(OSFS{}, path, func(k kind, key, value []byte) error {
		got = append(got, rec{k, string(key), string(value)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := os.Stat(path); off != st.Size() {
		t.Fatalf("replay offset %d, want full file %d", off, st.Size())
	}
	want := []rec{
		{kindPut, "traj-1", string(big)},
		{kindDelete, "traj-0", ""},
		{kindPut, "tiny", "v"},
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v key mismatch", i, got[i].key)
		}
	}
}

// TestWALCompressedEnvelopeCorrupt: a record whose CRC is intact but
// whose compressed envelope is mangled must stop replay cleanly at the
// previous record — the standard torn-tail contract, not an error.
func TestWALCompressedEnvelopeCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(OSFS{}, path, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(kindPut, []byte("good"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	goodSize, _ := os.Stat(path)

	// Hand-craft a record: valid length + CRC over a payload that claims
	// to be a compressed envelope but holds garbage after the tag.
	w2, err := openWAL(OSFS{}, path, false)
	if err != nil {
		t.Fatal(err)
	}
	bogus := append([]byte{walCompressedTag}, bytes.Repeat([]byte{0xAB}, 64)...)
	if err := w2.appendRecord(bogus); err != nil {
		t.Fatal(err)
	}
	if err := w2.close(); err != nil {
		t.Fatal(err)
	}

	n := 0
	off, err := replayWAL(OSFS{}, path, func(k kind, key, value []byte) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records, want 1 (bogus envelope must not surface)", n)
	}
	if off != goodSize.Size() {
		t.Fatalf("replay offset %d, want %d (end of last good record)", off, goodSize.Size())
	}
}

// TestWALCompressedRegionRecovery: a region whose codec is lz4 recovers
// unflushed writes from a WAL full of compressed envelopes.
func TestWALCompressedRegionRecovery(t *testing.T) {
	dir := t.TempDir()
	r, err := openRegion(0, dir, Options{Codec: "lz4"}.withDefaults(), newBlockCache(1<<20), &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("gps-fix;"), 256) // 2 KiB, over walCompressMin
	if err := r.applyBatch([]mutation{
		{k: kindPut, key: []byte("a"), value: val},
		{k: kindPut, key: []byte("b"), value: val},
	}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: drop the region without flushing the memtable.
	r.log.close()

	r2, err := openRegion(0, dir, Options{Codec: "lz4"}.withDefaults(), newBlockCache(1<<20), &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for _, k := range []string{"a", "b"} {
		v, err := r2.Get([]byte(k))
		if err != nil {
			t.Fatalf("get %s after recovery: %v", k, err)
		}
		if !bytes.Equal(v, val) {
			t.Fatalf("key %s recovered with wrong value", k)
		}
	}
}

// TestOpenClusterRejectsUnknownCodec pins the validation seam.
func TestOpenClusterRejectsUnknownCodec(t *testing.T) {
	if _, err := OpenCluster(t.TempDir(), ClusterOptions{Options: Options{Codec: "snappy"}}); err == nil {
		t.Fatal("OpenCluster accepted unknown codec")
	}
	c, err := OpenCluster(t.TempDir(), ClusterOptions{Options: Options{Codec: "lz4"}})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}
