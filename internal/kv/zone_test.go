package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// testZoneExtractor reads the record time from the first 8 bytes of the
// value (big-endian int64). Values shorter than 8 bytes have no zone.
func testZoneExtractor(_, value []byte) (int64, int64, bool) {
	if len(value) < 8 {
		return 0, 0, false
	}
	t := int64(binary.BigEndian.Uint64(value))
	return t, t, true
}

// zoneValue builds a value carrying time t plus pad bytes of filler, so
// tests can control how many entries land in each 4 KiB block.
func zoneValue(t int64, pad int) []byte {
	v := make([]byte, 8+pad)
	binary.BigEndian.PutUint64(v, uint64(t))
	for i := 8; i < len(v); i++ {
		v[i] = byte('a' + i%26)
	}
	return v
}

func zoneTime(v []byte) int64 { return int64(binary.BigEndian.Uint64(v)) }

// registryOf is a registry holding one family under prefix.
func registryOf(prefix []byte, f KeyFamily) *registry {
	g := &registry{}
	g.register(prefix, f)
	return g
}

func openZoneRegion(t *testing.T, met *Metrics) *region {
	t.Helper()
	opts := Options{families: registryOf(nil, KeyFamily{Zone: testZoneExtractor})}.withDefaults()
	r, err := openRegion(0, t.TempDir(), opts, nil, met)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestZoneMapPruningSkipsBlocks: a time-ordered table scanned with a
// narrow zone window must skip the out-of-window blocks before reading
// them, while still surfacing every in-window entry.
func TestZoneMapPruningSkipsBlocks(t *testing.T) {
	var met Metrics
	r := openZoneRegion(t, &met)
	const n = 200
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k-%04d", i))
		if err := r.Put(key, zoneValue(int64(i), 400)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.flush(); err != nil {
		t.Fatal(err)
	}

	it := r.Scan(KeyRange{Zoned: true, ZMin: 100, ZMax: 110})
	defer it.Close()
	seen := map[string]int64{}
	for it.Next() {
		seen[string(it.Key())] = zoneTime(it.Value())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	// No false negatives: every entry in the window is present. Block
	// granularity may add neighbours; the consumer re-filters those.
	for i := 100; i <= 110; i++ {
		key := fmt.Sprintf("k-%04d", i)
		if got, ok := seen[key]; !ok || got != int64(i) {
			t.Fatalf("in-window entry %s missing or wrong (got %d, ok=%v)", key, got, ok)
		}
	}
	if met.BlocksSkipped == 0 {
		t.Fatal("zone maps pruned no blocks on a selective window")
	}
	if len(seen) == n {
		t.Fatal("scan surfaced every entry: pruning had no effect")
	}
}

// TestZoneMapBoundaryInclusive: blocks whose zone touches the window
// edge exactly (zmax == ZMin or zmin == ZMax) must be kept. Oversized
// values force one entry per block so pruning is exact.
func TestZoneMapBoundaryInclusive(t *testing.T) {
	var met Metrics
	r := openZoneRegion(t, &met)
	const n = 10
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k-%d", i))
		if err := r.Put(key, zoneValue(int64(i), blockTargetSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.flush(); err != nil {
		t.Fatal(err)
	}

	it := r.Scan(KeyRange{Zoned: true, ZMin: 5, ZMax: 7})
	defer it.Close()
	var keys []string
	for it.Next() {
		keys = append(keys, string(it.Key()))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"k-5", "k-6", "k-7"}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("boundary blocks mispruned: got %v, want %v", keys, want)
	}
	if got, wantSkips := met.BlocksSkipped, int64(n-len(want)); got != wantSkips {
		t.Fatalf("BlocksSkipped = %d, want %d", got, wantSkips)
	}
}

// TestZoneSkipStaleVersionVeto: pruning a block that holds the newest
// put of a key must not let an older table's stale version win the
// merge. Table 0 (older) holds K with an in-window time; table 1
// (newer) holds K's latest value with an out-of-window time in a
// zone-prunable block. The scan must surface the newest value.
func TestZoneSkipStaleVersionVeto(t *testing.T) {
	var met Metrics
	r := openZoneRegion(t, &met)
	key := []byte("kkk")
	oldVal := zoneValue(50, 16)
	newVal := zoneValue(999, 16)
	if err := r.Put(key, oldVal); err != nil {
		t.Fatal(err)
	}
	if err := r.flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(key, newVal); err != nil {
		t.Fatal(err)
	}
	if err := r.flush(); err != nil {
		t.Fatal(err)
	}

	it := r.Scan(KeyRange{Zoned: true, ZMin: 40, ZMax: 60})
	defer it.Close()
	for it.Next() {
		if !bytes.Equal(it.Key(), key) {
			t.Fatalf("unexpected key %q", it.Key())
		}
		if got := zoneTime(it.Value()); got == 50 {
			t.Fatal("stale version surfaced: newest put was zone-pruned over an older overlapping table")
		} else if got != 999 {
			t.Fatalf("unexpected value time %d", got)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestZoneSkipDisjointTablesStillPrune: the stale-version veto is key-
// span based; tables with disjoint spans must not inhibit each other's
// pruning.
func TestZoneSkipDisjointTablesStillPrune(t *testing.T) {
	var met Metrics
	r := openZoneRegion(t, &met)
	for i := 0; i < 4; i++ {
		if err := r.Put([]byte(fmt.Sprintf("a-%d", i)), zoneValue(int64(i), blockTargetSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := r.Put([]byte(fmt.Sprintf("b-%d", i)), zoneValue(int64(100+i), blockTargetSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.flush(); err != nil {
		t.Fatal(err)
	}

	// Window hits only the b-* table; every a-* block is prunable and
	// table 1 has no older overlap (spans are disjoint).
	it := r.Scan(KeyRange{Zoned: true, ZMin: 100, ZMax: 103})
	defer it.Close()
	var n int
	for it.Next() {
		if it.Key()[0] != 'b' {
			t.Fatalf("out-of-window key %q surfaced", it.Key())
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("got %d in-window entries, want 4", n)
	}
	if met.BlocksSkipped == 0 {
		t.Fatal("disjoint older table blocked pruning")
	}
}

// TestZoneScanRandomizedEquivalence: across random overwrites spread
// over several tables and the memtable, a zoned scan must (a) surface
// every key whose latest version falls in the window — no false
// negatives — and (b) only ever surface latest versions — no stale
// resurrection.
func TestZoneScanRandomizedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var met Metrics
		r := openZoneRegion(t, &met)
		truth := map[string]int64{}
		const puts, keyspace = 2000, 400
		for i := 0; i < puts; i++ {
			key := fmt.Sprintf("k-%03d", rng.Intn(keyspace))
			tm := int64(rng.Intn(1000))
			if err := r.Put([]byte(key), zoneValue(tm, 100)); err != nil {
				t.Fatal(err)
			}
			truth[key] = tm
			if i%500 == 499 && i != puts-1 { // leave a tail in the memtable
				if err := r.flush(); err != nil {
					t.Fatal(err)
				}
			}
		}

		const zmin, zmax = 300, 400
		it := r.Scan(KeyRange{Zoned: true, ZMin: zmin, ZMax: zmax})
		got := map[string]int64{}
		for it.Next() {
			got[string(it.Key())] = zoneTime(it.Value())
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()

		for key, tm := range truth {
			if tm >= zmin && tm <= zmax {
				if gt, ok := got[key]; !ok {
					t.Fatalf("seed %d: false negative: %s (t=%d) missing from zoned scan", seed, key, tm)
				} else if gt != tm {
					t.Fatalf("seed %d: %s surfaced stale version t=%d, latest is %d", seed, key, gt, tm)
				}
			}
		}
		for key, gt := range got {
			if truth[key] != gt {
				t.Fatalf("seed %d: %s surfaced stale version t=%d, latest is %d", seed, key, gt, truth[key])
			}
		}
	}
}

// TestBlockCacheChargesDecompressedSize: the block cache caches
// decompressed buffers, so its byte accounting must reflect the
// decompressed size — not the (much smaller) on-disk compressed size —
// or a cache sized for memory would silently overcommit.
func TestBlockCacheChargesDecompressedSize(t *testing.T) {
	opts := Options{Codec: "gzip"}.withDefaults()
	r, err := openRegion(0, t.TempDir(), opts, newBlockCache(1<<20), &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Highly compressible values: gzip shrinks them drastically.
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
	// Every cached block holds >= 2 KiB of raw value bytes; the on-disk
	// compressed form is far below that. Charging compressed sizes
	// would put used well under 2 KiB per block.
	if used < int64(blocks)*2048 {
		t.Fatalf("cache charges %d bytes for %d blocks: accounting uses compressed size, not decompressed", used, blocks)
	}
}
