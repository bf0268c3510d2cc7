package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
)

func TestSkiplistPutGet(t *testing.T) {
	s := newSkiplist()
	s.put([]byte("b"), []byte("2"), kindPut)
	s.put([]byte("a"), []byte("1"), kindPut)
	s.put([]byte("c"), []byte("3"), kindPut)
	v, k, ok := s.get([]byte("b"))
	if !ok || k != kindPut || string(v) != "2" {
		t.Fatalf("get b = %q,%v,%v", v, k, ok)
	}
	if _, _, ok := s.get([]byte("zz")); ok {
		t.Fatal("missing key found")
	}
	// Overwrite.
	s.put([]byte("b"), []byte("22"), kindPut)
	v, _, _ = s.get([]byte("b"))
	if string(v) != "22" {
		t.Fatalf("overwrite failed: %q", v)
	}
	if s.count != 3 {
		t.Fatalf("count = %d, want 3", s.count)
	}
}

func TestSkiplistOrderedIteration(t *testing.T) {
	s := newSkiplist()
	rng := rand.New(rand.NewSource(1))
	want := map[string]string{}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%05d", rng.Intn(500))
		v := fmt.Sprintf("val-%d", i)
		s.put([]byte(k), []byte(v), kindPut)
		want[k] = v
	}
	var prev []byte
	n := 0
	s.iterate(KeyRange{}, func(key, value []byte, k kind) bool {
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			t.Fatalf("keys out of order: %q then %q", prev, key)
		}
		if want[string(key)] != string(value) {
			t.Fatalf("key %q has value %q, want %q", key, value, want[string(key)])
		}
		prev = append(prev[:0], key...)
		n++
		return true
	})
	if n != len(want) {
		t.Fatalf("iterated %d keys, want %d", n, len(want))
	}
}

func TestSkiplistRangeIteration(t *testing.T) {
	s := newSkiplist()
	for i := 0; i < 100; i++ {
		s.put([]byte(fmt.Sprintf("%03d", i)), []byte("v"), kindPut)
	}
	var got []string
	s.iterate(KeyRange{Start: []byte("010"), End: []byte("015")}, func(k, v []byte, _ kind) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 5 || got[0] != "010" || got[4] != "014" {
		t.Fatalf("range scan = %v", got)
	}
}

func TestBloomFilter(t *testing.T) {
	b := newBloomFilter(1000)
	for i := 0; i < 1000; i++ {
		b.add([]byte(fmt.Sprintf("key-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain([]byte(fmt.Sprintf("key-%d", i))) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if b.mayContain([]byte(fmt.Sprintf("other-%d", i))) {
			fp++
		}
	}
	if fp > 500 { // ~1% expected; allow 5%
		t.Fatalf("false positive rate too high: %d/10000", fp)
	}
}

func TestBloomRoundTrip(t *testing.T) {
	b := newBloomFilter(10)
	b.add([]byte("hello"))
	b2, err := unmarshalBloom(b.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !b2.mayContain([]byte("hello")) {
		t.Fatal("marshaled filter lost key")
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(OSFS{}, path, false)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		k   kind
		key string
		val string
	}
	want := []rec{
		{kindPut, "a", "1"},
		{kindPut, "b", "hello world"},
		{kindDelete, "a", ""},
		{kindPut, "", "empty key allowed"},
	}
	for _, r := range want {
		if err := w.append(r.k, []byte(r.key), []byte(r.val)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	var got []rec
	off, err := replayWAL(OSFS{}, path, func(k kind, key, value []byte) error {
		got = append(got, rec{k, string(key), string(value)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || off != st.Size() {
		t.Fatalf("replay offset %d, want full file size %v (%v)", off, st.Size(), err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _ := openWAL(OSFS{}, path, false)
	w.append(kindPut, []byte("good"), []byte("1"))
	w.close()
	// Append garbage simulating a torn write.
	f, _ := openWAL(OSFS{}, path, false)
	f.w.Write([]byte{9, 0, 0, 0, 1, 2})
	f.close()
	n := 0
	off, err := replayWAL(OSFS{}, path, func(k kind, key, value []byte) error {
		n++
		if string(key) != "good" {
			t.Errorf("unexpected key %q", key)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records, want 1", n)
	}
	// The reported offset excludes the torn tail (6 garbage bytes), so a
	// caller can truncate the garbage before appending again.
	if st, _ := os.Stat(path); off != st.Size()-6 {
		t.Fatalf("replay offset %d, want %d (file size %d minus torn tail)", off, st.Size()-6, st.Size())
	}
}

func writeTestTable(t *testing.T, path string, n int, codec uint8) *table {
	t.Helper()
	tw, err := newTableWriter(OSFS{}, path, codec, nil, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v := []byte(fmt.Sprintf("value-%d-%s", i, "padpadpadpad"))
		kd := kindPut
		if i%17 == 0 {
			kd = kindDelete
		}
		if err := tw.add(k, v, kd); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tw.finish(); err != nil {
		t.Fatal(err)
	}
	tbl, err := openTable(OSFS{}, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSSTableGet(t *testing.T) {
	for _, codec := range []uint8{blockCodecNone, blockCodecGzip, blockCodecLZ4} {
		t.Run(fmt.Sprintf("codec=%d", codec), func(t *testing.T) {
			tbl := writeTestTable(t, filepath.Join(t.TempDir(), "t.sst"), 5000, codec)
			defer tbl.close()
			for _, i := range []int{0, 1, 999, 2500, 4999} {
				k := []byte(fmt.Sprintf("key-%06d", i))
				v, kd, ok, err := tbl.get(k)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("key %s not found", k)
				}
				wantKind := kindPut
				if i%17 == 0 {
					wantKind = kindDelete
				}
				if kd != wantKind {
					t.Fatalf("key %s kind = %v", k, kd)
				}
				if wantKind == kindPut && !bytes.Contains(v, []byte(fmt.Sprintf("value-%d-", i))) {
					t.Fatalf("key %s value = %q", k, v)
				}
			}
			if _, _, ok, _ := tbl.get([]byte("zzz")); ok {
				t.Fatal("found key beyond table")
			}
			if _, _, ok, _ := tbl.get([]byte("key-9999999")); ok {
				t.Fatal("found missing key")
			}
		})
	}
}

func TestSSTableScan(t *testing.T) {
	tbl := writeTestTable(t, filepath.Join(t.TempDir(), "t.sst"), 5000, blockCodecGzip)
	defer tbl.close()
	it := tbl.iter(KeyRange{Start: []byte("key-001000"), End: []byte("key-001010")})
	var keys []string
	for it.Next() {
		keys = append(keys, string(it.Key()))
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(keys) != 10 || keys[0] != "key-001000" || keys[9] != "key-001009" {
		t.Fatalf("scan = %v", keys)
	}
}

func TestSSTableScanFull(t *testing.T) {
	tbl := writeTestTable(t, filepath.Join(t.TempDir(), "t.sst"), 2000, blockCodecNone)
	defer tbl.close()
	it := tbl.iter(KeyRange{})
	n := 0
	var prev []byte
	for it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatal("scan out of order")
		}
		prev = append(prev[:0], it.Key()...)
		n++
	}
	if n != 2000 {
		t.Fatalf("scanned %d entries, want 2000", n)
	}
}

func TestSSTableRejectsOutOfOrder(t *testing.T) {
	tw, err := newTableWriter(OSFS{}, filepath.Join(t.TempDir(), "t.sst"), blockCodecNone, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tw.abort()
	if err := tw.add([]byte("b"), nil, kindPut); err != nil {
		t.Fatal(err)
	}
	if err := tw.add([]byte("a"), nil, kindPut); err == nil {
		t.Fatal("out-of-order add should fail")
	}
}

// TestSSTableWriterAllocsPerBlock: adding an entry allocates nothing of
// its own (the bloom filter keeps an 8-byte hash in a slice sized up
// front, not a copy of the key), so a table's allocations grow with its
// blocks, not its entries.
func TestSSTableWriterAllocsPerBlock(t *testing.T) {
	const n = 5000
	keys, values := make([][]byte, n), make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
		values[i] = []byte(fmt.Sprintf("value-%d-padpadpadpadpadpadpadpad", i*7919))
	}
	path := filepath.Join(t.TempDir(), "t.sst")
	var blocks int
	allocs := testing.AllocsPerRun(5, func() {
		tw, err := newTableWriter(OSFS{}, path, blockCodecLZ4, nil, n)
		if err != nil {
			t.Fatal(err)
		}
		defer tw.abort()
		for i := range keys {
			if err := tw.add(keys[i], values[i], kindPut); err != nil {
				t.Fatal(err)
			}
		}
		blocks = len(tw.index)
	})
	t.Logf("%v allocations for %d entries in %d blocks", allocs, n, blocks)
	if blocks < 50 {
		t.Fatalf("%d entries filled only %d blocks", n, blocks)
	}
	if limit := float64(3*blocks + 30); allocs > limit {
		t.Fatalf("%v allocations for %d entries in %d blocks, want at most %v", allocs, n, blocks, limit)
	}
}

// TestSSTableBloomSection: the filter a table is built with from its
// keys' hashes is byte for byte the filter newBloomFilter and add build
// from the keys, and bloomHash is the standard 64-bit FNV-1a, so tables
// written before hashes replaced key copies keep answering.
func TestSSTableBloomSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	writeTestTable(t, path, 3000, blockCodecLZ4).close()
	want := newBloomFilter(3000)
	for i := 0; i < 3000; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		want.add(key)
		h := fnv.New64a()
		h.Write(key)
		if bloomHash(key) != h.Sum64() {
			t.Fatalf("bloomHash(%q) = %#x, FNV-1a %#x", key, bloomHash(key), h.Sum64())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footer := data[len(data)-footerSize:]
	off, n := binary.LittleEndian.Uint64(footer[0:]), binary.LittleEndian.Uint64(footer[8:])
	if got := data[off : off+n]; !bytes.Equal(got, want.marshal()) {
		t.Fatalf("bloom section differs from the keys' filter (%d bytes, want %d)", len(got), len(want.marshal()))
	}
}

func TestBlockCacheLRU(t *testing.T) {
	c := newBlockCache(100)
	c.put(1, 0, make([]byte, 40))
	c.put(1, 1, make([]byte, 40))
	if _, ok := c.get(1, 0); !ok {
		t.Fatal("block 0 evicted too early")
	}
	// Touch 0, then add a third; 1 should be evicted (LRU).
	c.put(1, 2, make([]byte, 40))
	if _, ok := c.get(1, 1); ok {
		t.Fatal("block 1 should be evicted")
	}
	if _, ok := c.get(1, 0); !ok {
		t.Fatal("block 0 should survive")
	}
}

func newTestRegion(t *testing.T, opts Options) *region {
	t.Helper()
	r, err := openRegion(0, t.TempDir(), opts.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestRegionPutGetDelete(t *testing.T) {
	r := newTestRegion(t, Options{})
	if err := r.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := r.Get([]byte("k1"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("get = %q, %v", v, err)
	}
	if err := r.Delete([]byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get([]byte("k1")); err != ErrNotFound {
		t.Fatalf("deleted key: err = %v, want ErrNotFound", err)
	}
}

func TestRegionFlushAndGet(t *testing.T) {
	r := newTestRegion(t, Options{})
	for i := 0; i < 1000; i++ {
		r.Put([]byte(fmt.Sprintf("k-%04d", i)), []byte(fmt.Sprintf("v-%d", i)))
	}
	if err := r.flush(); err != nil {
		t.Fatal(err)
	}
	// More writes after flush; some overwrite.
	for i := 500; i < 1500; i++ {
		r.Put([]byte(fmt.Sprintf("k-%04d", i)), []byte(fmt.Sprintf("v2-%d", i)))
	}
	v, err := r.Get([]byte("k-0100"))
	if err != nil || string(v) != "v-100" {
		t.Fatalf("old key = %q, %v", v, err)
	}
	v, err = r.Get([]byte("k-0700"))
	if err != nil || string(v) != "v2-700" {
		t.Fatalf("overwritten key = %q, %v", v, err)
	}
	v, err = r.Get([]byte("k-1400"))
	if err != nil || string(v) != "v2-1400" {
		t.Fatalf("new key = %q, %v", v, err)
	}
}

func TestRegionScanMergesSources(t *testing.T) {
	r := newTestRegion(t, Options{})
	// Three generations: sstable-old, sstable-new, memtable.
	for i := 0; i < 300; i++ {
		r.Put([]byte(fmt.Sprintf("k-%04d", i)), []byte("gen1"))
	}
	r.flush()
	for i := 100; i < 200; i++ {
		r.Put([]byte(fmt.Sprintf("k-%04d", i)), []byte("gen2"))
	}
	for i := 150; i < 170; i++ {
		r.Delete([]byte(fmt.Sprintf("k-%04d", i)))
	}
	r.flush()
	for i := 160; i < 165; i++ {
		r.Put([]byte(fmt.Sprintf("k-%04d", i)), []byte("gen3"))
	}
	it := r.Scan(KeyRange{})
	got := map[string]string{}
	var prev []byte
	for it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatal("merged scan out of order")
		}
		prev = append(prev[:0], it.Key()...)
		got[string(it.Key())] = string(it.Value())
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	// 300 originals - 20 deleted + 5 reinserted = 285.
	if len(got) != 285 {
		t.Fatalf("scan found %d keys, want 285", len(got))
	}
	if got["k-0050"] != "gen1" {
		t.Errorf("k-0050 = %q, want gen1", got["k-0050"])
	}
	if got["k-0120"] != "gen2" {
		t.Errorf("k-0120 = %q, want gen2", got["k-0120"])
	}
	if _, ok := got["k-0155"]; ok {
		t.Error("deleted key k-0155 visible")
	}
	if got["k-0162"] != "gen3" {
		t.Errorf("k-0162 = %q, want gen3", got["k-0162"])
	}
}

func TestRegionCompaction(t *testing.T) {
	r := newTestRegion(t, Options{MemtableBytes: 8 << 10, MaxTables: 3})
	for i := 0; i < 5000; i++ {
		r.Put([]byte(fmt.Sprintf("k-%05d", i%1000)), bytes.Repeat([]byte("x"), 50))
	}
	r.flush()
	r.compact()
	if len(r.tables) != 1 {
		t.Fatalf("after compaction: %d tables, want 1", len(r.tables))
	}
	n := 0
	it := r.Scan(KeyRange{})
	for it.Next() {
		n++
	}
	if n != 1000 {
		t.Fatalf("post-compaction scan = %d keys, want 1000", n)
	}
}

func TestRegionWALRecovery(t *testing.T) {
	dir := t.TempDir()
	r, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte(fmt.Sprintf("v-%d", i)))
	}
	r.Delete([]byte("k-050"))
	// Simulate crash: close WAL file handles without flushing memtable.
	r.mu.Lock()
	r.log.close()
	r.closed = true
	r.mu.Unlock()

	r2, err := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	v, err := r2.Get([]byte("k-042"))
	if err != nil || string(v) != "v-42" {
		t.Fatalf("recovered k-042 = %q, %v", v, err)
	}
	if _, err := r2.Get([]byte("k-050")); err != ErrNotFound {
		t.Fatalf("recovered tombstone: err = %v", err)
	}
}

func TestRegionReopenAfterFlush(t *testing.T) {
	dir := t.TempDir()
	r, _ := openRegion(0, dir, Options{}.withDefaults(), nil, nil)
	for i := 0; i < 500; i++ {
		r.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte("v"))
	}
	r.flush()
	r.Close()
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
	if n != 500 {
		t.Fatalf("reopened region has %d keys, want 500", n)
	}
}

func TestRegionModelProperty(t *testing.T) {
	// Random operations against a map model, with random flushes.
	r := newTestRegion(t, Options{MemtableBytes: 1 << 10})
	model := map[string]string{}
	rng := rand.New(rand.NewSource(77))
	for op := 0; op < 3000; op++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(300))
		switch rng.Intn(10) {
		case 0:
			r.Delete([]byte(k))
			delete(model, k)
		case 1:
			if op%100 == 0 {
				r.flush()
			}
		default:
			v := fmt.Sprintf("v-%d", op)
			r.Put([]byte(k), []byte(v))
			model[k] = v
		}
	}
	// Verify every key via Get.
	for k, want := range model {
		v, err := r.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("Get(%q) = %q, %v; want %q", k, v, err, want)
		}
	}
	// Verify scan equals sorted model.
	var wantKeys []string
	for k := range model {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	var gotKeys []string
	it := r.Scan(KeyRange{})
	for it.Next() {
		gotKeys = append(gotKeys, string(it.Key()))
		if string(it.Value()) != model[string(it.Key())] {
			t.Fatalf("scan value mismatch for %q", it.Key())
		}
	}
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("scan = %d keys, model = %d", len(gotKeys), len(wantKeys))
	}
	for i := range gotKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("key %d = %q, want %q", i, gotKeys[i], wantKeys[i])
		}
	}
}

func TestKeyRange(t *testing.T) {
	r := KeyRange{Start: []byte("b"), End: []byte("d")}
	if !r.Contains([]byte("b")) || !r.Contains([]byte("c")) {
		t.Error("range should contain b, c")
	}
	if r.Contains([]byte("d")) || r.Contains([]byte("a")) {
		t.Error("range should exclude d (end) and a")
	}
	if !(KeyRange{}).Contains([]byte("anything")) {
		t.Error("unbounded range contains everything")
	}
	if !r.Overlaps(KeyRange{Start: []byte("c")}) {
		t.Error("overlap with open-ended range")
	}
	if r.Overlaps(KeyRange{Start: []byte("d")}) {
		t.Error("no overlap when start == end (half-open)")
	}
	sub, ok := r.Intersect(KeyRange{Start: []byte("c"), End: []byte("z")})
	if !ok || string(sub.Start) != "c" || string(sub.End) != "d" {
		t.Errorf("intersect = %v %v", sub, ok)
	}
}

func TestKeyRangeIntersectProperty(t *testing.T) {
	f := func(a, b, c, d, probe byte) bool {
		mk := func(x, y byte) KeyRange {
			if x > y {
				x, y = y, x
			}
			return KeyRange{Start: []byte{x}, End: []byte{y}}
		}
		r1, r2 := mk(a, b), mk(c, d)
		sub, ok := r1.Intersect(r2)
		p := []byte{probe}
		inBoth := r1.Contains(p) && r2.Contains(p)
		if !ok {
			return !inBoth
		}
		return sub.Contains(p) == inBoth
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
