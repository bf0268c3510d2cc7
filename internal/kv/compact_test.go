package kv

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestCompactReadsPastTheCache: a compaction reads its inputs past the
// block cache. While the inputs stay pinned (so their blocks are not yet
// dropped), the cache holds the same entries after Compact as before it,
// with no hit or miss counted. The merged table is byte for byte the one
// a merge through the cache builds from the same inputs. A bit flipped
// in every input read still surfaces as ErrCorruptBlock, counted once.
func TestCompactReadsPastTheCache(t *testing.T) {
	ffs := NewFaultFS(OSFS{}, 57)
	var met Metrics
	cache := newBlockCache(64 << 10) // a fraction of the inputs
	r, err := openRegion(0, t.TempDir(), Options{FS: ffs, Codec: "lz4", MaxTables: 8}.withDefaults(), cache, &met)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Three tables over one key space: puts, overwrites and tombstones.
	fill := func(gen int) {
		for i := gen; i < 3000; i += 1 + gen {
			key := []byte(fmt.Sprintf("k-%05d", i))
			if gen == 2 && i%5 == 0 {
				r.Delete(key)
			} else {
				r.Put(key, bytes.Repeat([]byte{byte('a' + gen)}, 30+i%20))
			}
		}
		settle(t, r)
	}
	for gen := 0; gen < 3; gen++ {
		fill(gen)
	}
	it := r.Scan(KeyRange{}) // leaves the cache full of the inputs' blocks
	for it.Next() {
	}
	it.Close()

	inputs := pinTables(nil, r.tables)
	defer releaseTables(inputs)
	want := filepath.Join(t.TempDir(), "want.sst")
	mergeThroughCache(t, r, inputs, want)

	entries := func() []cacheKey {
		cache.mu.Lock()
		defer cache.mu.Unlock()
		var keys []cacheKey
		for k := range cache.items {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b cacheKey) int {
			if a.table != b.table {
				return int(a.table) - int(b.table)
			}
			return a.block - b.block
		})
		return keys
	}
	before, stats := entries(), met
	if len(before) == 0 {
		t.Fatal("the cache holds no block before the compaction")
	}
	if err := r.compact(); err != nil {
		t.Fatal(err)
	}
	if after := entries(); !slices.Equal(after, before) {
		t.Fatalf("the cache holds %d blocks after the compaction, %d before, or others", len(after), len(before))
	}
	if met.BlockCacheHits != stats.BlockCacheHits || met.BlockCacheMisses != stats.BlockCacheMisses {
		t.Fatalf("the compaction counted %d cache hits and %d misses, want none",
			met.BlockCacheHits-stats.BlockCacheHits, met.BlockCacheMisses-stats.BlockCacheMisses)
	}
	if len(r.tables) != 1 {
		t.Fatalf("%d tables after the compaction, want 1", len(r.tables))
	}
	got, err := os.ReadFile(r.tables[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if wantBytes, err := os.ReadFile(want); err != nil || !bytes.Equal(got, wantBytes) {
		t.Fatalf("the merged table is %d bytes, the one merged through the cache %d (err %v), or they differ", len(got), len(wantBytes), err)
	}

	fill(3)
	ffs.Add(FaultRule{Pattern: "sst-*.sst", Op: OpRead, Kind: FaultBitFlip, Prob: 1})
	corruptions := met.CorruptionsDetected
	err = r.compact()
	var cb *ErrCorruptBlock
	if !errors.As(err, &cb) {
		t.Fatalf("compaction over flipped reads = %v, want *ErrCorruptBlock", err)
	}
	if n := met.CorruptionsDetected - corruptions; n != 1 {
		t.Fatalf("CorruptionsDetected grew by %d, want 1", n)
	}
	ffs.Clear()
	if err := r.compact(); err != nil {
		t.Fatalf("compaction once the reads are clean: %v", err)
	}
}

// mergeThroughCache writes to path the table a full compaction of
// tables builds, reading every block through the cache as region.Scan
// does.
func mergeThroughCache(t *testing.T, r *region, tables []*table, path string) {
	t.Helper()
	n := 0
	for _, tb := range tables {
		n += int(tb.count)
	}
	it := &mergeIter{raw: true}
	defer it.Close()
	it.arm(tables)
	it.seek(KeyRange{})
	tw, err := newTableWriter(OSFS{}, path, r.opts.blockCodec(), r.opts.families.snapshot(), n)
	if err != nil {
		t.Fatal(err)
	}
	for it.nextRaw() {
		if it.kind() == kindDelete {
			continue
		}
		if err := tw.add(it.Key(), it.Value(), it.kind()); err != nil {
			t.Fatal(err)
		}
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if _, err := tw.finish(); err != nil {
		t.Fatal(err)
	}
}
