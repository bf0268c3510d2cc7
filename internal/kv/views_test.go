package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestMergeIterZeroAllocsPerPair: with its blocks cached, a merge over a
// memtable and two SSTables yields each pair without allocating — the
// pairs are the sources' own slices, not copies.
func TestMergeIterZeroAllocsPerPair(t *testing.T) {
	r, err := openRegion(0, t.TempDir(), Options{Codec: "lz4"}.withDefaults(), newBlockCache(8<<20), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for gen := 0; gen < 3; gen++ { // two SSTables, then the memtable
		for i := gen; i < 3000; i += 2 {
			r.Put([]byte(fmt.Sprintf("k-%05d", i)), bytes.Repeat([]byte{byte('a' + gen)}, 40))
		}
		if gen < 2 {
			r.flush()
		}
	}
	if len(r.tables) != 2 || r.mem.count == 0 {
		t.Fatalf("%d tables, %d memtable entries; want 2 and some", len(r.tables), r.mem.count)
	}
	warm := r.Scan(KeyRange{}) // fills the block cache
	for warm.Next() {
	}
	warm.Close()

	it := r.Scan(KeyRange{})
	defer it.Close()
	allocs := testing.AllocsPerRun(2000, func() {
		if !it.Next() {
			t.Fatal("iterator ran dry")
		}
	})
	if allocs != 0 {
		t.Fatalf("%.2f allocations per pair, want 0", allocs)
	}
}

// TestScanPairsValidUntilNextThroughFlushAndCompaction copies every pair
// a scan yields at its Next — a pair is a view into a memtable arena or
// a held block, valid until the next Next — while flushes and
// compactions replace the sources underneath and a 16 KiB block cache
// evicts, recycles and reloads blocks, then compares each byte with a
// brute-force map. The values of the lower half of the keys are
// incompressible, so their blocks are stored raw and the others
// lz4-compressed.
func TestScanPairsValidUntilNextThroughFlushAndCompaction(t *testing.T) {
	opts := Options{Codec: "lz4", MemtableBytes: 32 << 10, MaxTables: 3}.withDefaults()
	r, err := openRegion(0, t.TempDir(), opts, newBlockCache(16<<10), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rng := rand.New(rand.NewSource(36))
	model := map[string][]byte{}
	key := func(i int) string { return fmt.Sprintf("key-%04d", i) }
	for round := 0; round < 6; round++ {
		for n := 0; n < 400; n++ {
			i := rng.Intn(1000)
			k := key(i)
			if rng.Intn(10) == 0 {
				delete(model, k)
				if err := r.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			v := bytes.Repeat([]byte(k), 8+rng.Intn(64))
			if i < 500 {
				v = make([]byte, 512+rng.Intn(1536))
				rng.Read(v)
			}
			model[k] = v
			if err := r.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
		}
		stop := make(chan struct{})
		maint := make(chan error, 1)
		go func() { // flush and compact until the scanners finish
			for {
				select {
				case <-stop:
					maint <- nil
					return
				default:
				}
				if err := r.flush(); err != nil {
					maint <- err
					return
				}
				if err := r.compact(); err != nil {
					maint <- err
					return
				}
			}
		}()
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for s := 0; s < 4; s++ {
			lo := rng.Intn(900)
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				errs <- scanAgainst(r, model, KeyRange{Start: []byte(key(lo)), End: []byte(key(hi))})
			}(lo, lo+50+rng.Intn(100))
		}
		wg.Wait()
		close(stop)
		if err := <-maint; err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 4; s++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	codecs := map[uint8]int{}
	for _, tb := range r.tables {
		for _, h := range tb.index {
			codecs[h.codec]++
		}
	}
	if codecs[blockCodecNone] == 0 || codecs[blockCodecLZ4] == 0 {
		t.Fatalf("blocks per codec %v: want raw and lz4 blocks both", codecs)
	}
}

// scanAgainst scans kr three times, copying every pair at its Next, and
// only then checks the copies of all three scans against model.
func scanAgainst(r *region, model map[string][]byte, kr KeyRange) error {
	var want []string
	for k := range model {
		if kr.Contains([]byte(k)) {
			want = append(want, k)
		}
	}
	sort.Strings(want)
	var kept [3][][2][]byte
	for i := range kept {
		it := r.Scan(kr)
		for it.Next() {
			kept[i] = append(kept[i], [2][]byte{bytes.Clone(it.Key()), bytes.Clone(it.Value())})
		}
		err := it.Err()
		it.Close()
		if err != nil {
			return err
		}
	}
	for _, pairs := range kept {
		if len(pairs) != len(want) {
			return fmt.Errorf("scan of %s..%s: %d pairs, want %d", kr.Start, kr.End, len(pairs), len(want))
		}
		for j, p := range pairs {
			if string(p[0]) != want[j] || !bytes.Equal(p[1], model[want[j]]) {
				return fmt.Errorf("pair %d: key %q (want %q), value differs from the model: %v", j, p[0], want[j], !bytes.Equal(p[1], model[want[j]]))
			}
		}
	}
	return nil
}
