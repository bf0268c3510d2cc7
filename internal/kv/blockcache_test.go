package kv

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"just/internal/rpc"
)

// Test builds overwrite every buffer the block cache recycles, so a
// view held past its block's release reads garbage, not a stale copy
// that happens to be right.
func init() { poisonRecycled = true }

// gateFS holds every read while hold is set, until release is closed,
// so that readers of one block meet while the first read is in flight.
type gateFS struct {
	VFS
	hold    *atomic.Bool
	release chan struct{}
}

func (g gateFS) Open(path string) (File, error) {
	f, err := g.VFS.Open(path)
	return gateFile{f, g}, err
}

type gateFile struct {
	File
	g gateFS
}

func (f gateFile) ReadAt(p []byte, off int64) (int, error) {
	if f.g.hold.Load() {
		<-f.g.release
	}
	return f.File.ReadAt(p, off)
}

// TestConcurrentMissesReadOnce: eight readers that miss one block at
// once read it once and get equal bytes; the seven that find the load
// in flight wait for it and count as hits. When every read of the block
// fails its checksum, each reader gets its own ErrCorruptBlock, as each
// would without the cache.
func TestConcurrentMissesReadOnce(t *testing.T) {
	const readers = 8
	for _, corrupt := range []bool{false, true} {
		t.Run(fmt.Sprintf("corrupt=%v", corrupt), func(t *testing.T) {
			ffs := NewFaultFS(OSFS{}, 1)
			fs := gateFS{VFS: ffs, hold: new(atomic.Bool), release: make(chan struct{})}
			var met Metrics
			cache := newBlockCache(1 << 20)
			r, err := openRegion(0, t.TempDir(), Options{FS: fs, Codec: "lz4"}.withDefaults(), cache, &met)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for i := 0; i < 200; i++ {
				r.Put([]byte(fmt.Sprintf("k-%05d", i)), bytes.Repeat([]byte{byte(i)}, 40))
			}
			if err := r.flush(); err != nil {
				t.Fatal(err)
			}
			tb := r.tables[0]
			want, err := tb.readBlock(0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if corrupt {
				ffs.Add(FaultRule{Pattern: "*.sst", Op: OpRead, Kind: FaultBitFlip, Prob: 1})
			}
			before := met
			fs.hold.Store(true)
			got := make([][]byte, readers)
			errs := make([]error, readers)
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					data, e, err := tb.loadBlock(0)
					got[g], errs[g] = bytes.Clone(data), err
					cache.release(e)
				}()
			}
			// Open the gate once all eight hold the in-flight entry: the
			// cache's reference, the loader's and seven waiters'.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				cache.mu.Lock()
				e := cache.items[cacheKey{tb.id, 0}]
				n := int32(0)
				if e != nil {
					n = e.refs.Load()
				}
				cache.mu.Unlock()
				if n == readers+1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the block's entry has %d references, want %d", n, readers+1)
				}
			}
			close(fs.release)
			wg.Wait()
			fs.hold.Store(false)
			hits, misses := met.BlockCacheHits-before.BlockCacheHits, met.BlockCacheMisses-before.BlockCacheMisses
			if corrupt {
				for g, err := range errs {
					var cb *ErrCorruptBlock
					if !errors.As(err, &cb) || cb.Block != 0 {
						t.Fatalf("reader %d: err = %v, want ErrCorruptBlock of block 0", g, err)
					}
				}
				if n := met.CorruptionsDetected - before.CorruptionsDetected; n != readers {
					t.Fatalf("CorruptionsDetected grew by %d, want %d (one per reader)", n, readers)
				}
				if n := met.BlocksRead - before.BlocksRead; n != 0 {
					t.Fatalf("BlocksRead grew by %d through a corrupt block", n)
				}
				if cache.len() != 0 {
					t.Fatalf("%d blocks cached after every load failed", cache.len())
				}
				return
			}
			if n := met.BlocksRead - before.BlocksRead; n != 1 {
				t.Fatalf("BlocksRead grew by %d, want 1", n)
			}
			if hits != readers-1 || misses != 1 {
				t.Fatalf("%d hits and %d misses, want %d and 1", hits, misses, readers-1)
			}
			for g := range got {
				if errs[g] != nil || !bytes.Equal(got[g], want) {
					t.Fatalf("reader %d: %d bytes, %v; want the block's %d", g, len(got[g]), errs[g], len(want))
				}
			}
		})
	}
}

// TestScanAllocsPerMissedBlock: a scan that misses the block cache
// allocates nothing per missed block. The block it evicts is recycled,
// and the miss decompresses into its buffer. The table is about 4× the
// cache, so a full scan misses every block on every run; a scan of a
// range that fits the cache, which misses none, is the baseline. Under
// -race sync.Pool drops what it is handed, so only the misses are
// checked there.
func TestScanAllocsPerMissedBlock(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Options: Options{Codec: "lz4", BlockCacheBytes: 64 << 10}})
	rng := rand.New(rand.NewSource(55))
	var b WriteBatch
	const keys = 2000
	for i := 0; i < keys; i++ {
		v := make([]byte, 120)
		for j := range v {
			v[j] = 'a' + byte(rng.Intn(8))
		}
		b.Put([]byte(fmt.Sprintf("k-%05d", i)), v)
	}
	if err := c.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	blocks := len(c.r.tables[0].index)
	count := func() TaskCollector[int] {
		n := 0
		return TaskCollector[int]{
			Add:    func(k, v []byte) (int, bool, error) { n++; return 0, false, nil },
			Finish: func() (int, bool, error) { return n, true, nil },
		}
	}
	const runs = 20
	scan := func(kr KeyRange, want int) (allocs float64, missesPerRun int64) {
		m0 := atomic.LoadInt64(&c.met.BlockCacheMisses)
		allocs = testing.AllocsPerRun(runs, func() {
			got := 0
			if err := ScanCollect(bg, c, []KeyRange{kr}, count, func(n int) bool { got += n; return true }); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("scan collected %d pairs, want %d", got, want)
			}
		})
		return allocs, (atomic.LoadInt64(&c.met.BlockCacheMisses) - m0) / (runs + 1)
	}
	small, smallMisses := scan(KeyRange{End: []byte("k-00200")}, 200)
	large, misses := scan(KeyRange{}, keys)
	if smallMisses != 0 || misses < int64(blocks)*9/10 {
		t.Fatalf("%d misses per run over %d blocks, %d in the small range: the table does not dwarf the cache", misses, blocks, smallMisses)
	}
	perMiss := (large - small) / float64(misses)
	t.Logf("%.0f allocations per scan in the cache, %.0f per scan of %d missed blocks: %.3f per missed block", small, large, misses, perMiss)
	if !raceEnabled && perMiss > 0 {
		t.Fatalf("%.3f allocations per missed block, want 0", perMiss)
	}
}

// staleValue is a value that names its key and carries its own
// checksum; half the keys get incompressible payloads, so their blocks
// are stored raw, the others lz4-compressed.
func staleValue(rng *rand.Rand, key []byte, version int) []byte {
	v := fmt.Appendf(nil, "%s|%d|", key, version)
	n := 200 + rng.Intn(600)
	for i := 0; i < n; i++ {
		if key[len(key)-1]%2 == 0 {
			v = append(v, byte(rng.Intn(256)))
		} else {
			v = append(v, 'a'+byte(i%7))
		}
	}
	return binary.BigEndian.AppendUint32(v, crc32.ChecksumIEEE(v))
}

// checkStaleValue reports what is wrong with a pair staleValue did not
// make for that key, or "".
func checkStaleValue(k, v []byte) string {
	if len(v) < 4 || !bytes.HasPrefix(v, append(bytes.Clone(k), '|')) {
		return fmt.Sprintf("key %q: value %.24q does not name it", k, v)
	}
	body := v[:len(v)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(v[len(v)-4:]) {
		return fmt.Sprintf("key %q: value checksum mismatch", k)
	}
	return ""
}

// TestRecycledBlocksServeNoStaleView: scans over a 16 KiB block cache,
// whose blocks are evicted and recycled (and, in tests, poisoned) all
// the time, while a writer rewrites every key, memtables flush and
// tables merge. Every scan must yield each key once, in order, with a
// value that writer made for that key. It runs through ScanCollect on
// a Cluster, and through a RegionNode over Loopback behind a Router,
// whose frames are built from the merge's views.
func TestRecycledBlocksServeNoStaleView(t *testing.T) {
	opts := Options{Codec: "lz4", BlockCacheBytes: 16 << 10, MemtableBytes: 24 << 10, MaxTables: 3}
	_, _, router := startRouterCluster(t, 1, NodeOptions{Options: opts}, fastRetry(RouterOptions{}))
	stores := map[string]Store{
		"cluster": newTestCluster(t, ClusterOptions{Options: opts}),
		"router":  router,
	}
	const keys = 400
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	var ranges []KeyRange
	for i := 0; i < keys; i += keys / 8 {
		ranges = append(ranges, KeyRange{Start: key(i), End: key(i + keys/8)})
	}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(55))
			write := func(order []int, version int) error {
				var b WriteBatch
				for _, i := range order {
					b.Put(key(i), staleValue(rng, key(i), version))
					if len(b.muts) == 40 {
						if err := s.ApplyCtx(bg, &b); err != nil {
							return err
						}
						b = WriteBatch{}
					}
				}
				return s.ApplyCtx(bg, &b)
			}
			if err := write(rng.Perm(keys), 0); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(bg)
			var writer sync.WaitGroup
			writer.Add(1)
			var werr error
			go func() { // every round rewrites each key, in a random order
				defer writer.Done()
				for version := 1; ctx.Err() == nil; version++ {
					if werr = write(rng.Perm(keys), version); werr != nil {
						return
					}
					if c, ok := s.(*Cluster); ok && version%4 == 0 {
						if werr = c.Compact(); werr != nil {
							return
						}
					}
				}
			}()
			var scanErr error
			for round := 0; round < 40 && scanErr == nil; round++ {
				var got [][]byte
				var bad []string
				var mu sync.Mutex
				err := scanEach(bg, s, ranges, func(k, v []byte) ([]byte, bool, error) {
					if msg := checkStaleValue(k, v); msg != "" {
						mu.Lock()
						bad = append(bad, msg)
						mu.Unlock()
					}
					return bytes.Clone(k), true, nil
				}, func(k []byte) bool { got = append(got, k); return true })
				switch {
				case err != nil:
					scanErr = err
				case len(bad) > 0:
					scanErr = fmt.Errorf("round %d: %d stale pairs, first: %s", round, len(bad), bad[0])
				case len(got) != keys:
					scanErr = fmt.Errorf("round %d: %d pairs, want %d", round, len(got), keys)
				}
				if scanErr == nil {
					seen := map[string]bool{}
					for _, k := range got {
						seen[string(k)] = true
					}
					if len(seen) != keys {
						scanErr = fmt.Errorf("round %d: %d distinct keys, want %d", round, len(seen), keys)
					}
				}
			}
			cancel()
			writer.Wait()
			if scanErr != nil {
				t.Fatal(scanErr)
			}
			if werr != nil && !errors.Is(werr, context.Canceled) {
				t.Fatal(werr)
			}
			if m := s.metrics(); atomic.LoadInt64(&m.BlockCacheMisses) == 0 && name == "cluster" {
				t.Fatal("no scan missed the cache")
			}
		})
	}
}

// TestPointReadsSurviveRecycledBlocks: a value GetCtx or MultiGetCtx
// returns is the caller's. The values are read from blocks of a 16 KiB
// cache; full scans then evict those blocks, whose buffers are recycled
// (and, in tests, poisoned) and refilled by later misses, and every
// value kept must still be the one written. It runs on a Cluster and
// through a RegionNode over Loopback behind a Router.
func TestPointReadsSurviveRecycledBlocks(t *testing.T) {
	opts := Options{Codec: "lz4", BlockCacheBytes: 16 << 10}
	_, nodes, router := startRouterCluster(t, 1, NodeOptions{Options: opts}, fastRetry(RouterOptions{}))
	cluster := newTestCluster(t, ClusterOptions{Options: opts})
	stores := []struct {
		name   string
		s      Store
		misses func() int64
	}{
		{"cluster", cluster, func() int64 { return cluster.Metrics().BlockCacheMisses }},
		{"router", router, func() int64 { return nodes[0].Metrics().BlockCacheMisses }},
	}
	const keys = 400
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			s, rng := st.s, rand.New(rand.NewSource(58))
			var b WriteBatch
			for i := 0; i < keys; i++ {
				b.Put(key(i), staleValue(rng, key(i), 0))
			}
			if err := s.ApplyCtx(bg, &b); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			var kept [][2][]byte // key, value
			for i := 0; i < keys; i += 7 {
				v, err := s.GetCtx(bg, key(i))
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, [2][]byte{key(i), v})
			}
			var many [][]byte
			for i := 3; i < keys; i += 7 {
				many = append(many, key(i))
			}
			vs, err := s.MultiGetCtx(bg, many)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vs {
				kept = append(kept, [2][]byte{many[i], v})
			}
			misses := st.misses()
			for pass := 0; pass < 2; pass++ {
				if err := ScanRange(bg, s, KeyRange{}, func(k, v []byte) bool { return true }); err != nil {
					t.Fatal(err)
				}
			}
			// Each pass misses four times what the cache holds, so no
			// block the point reads loaded is still cached.
			if n, least := st.misses()-misses, int64(2*4*(16<<10)/blockTargetSize); n < least {
				t.Fatalf("the scans missed %d blocks, want at least %d", n, least)
			}
			for _, p := range kept {
				if msg := checkStaleValue(p[0], p[1]); msg != "" {
					t.Fatal(msg)
				}
			}
		})
	}
}

// TestScanFramesMatchScanBatch: the frames a region node builds pair
// by pair are byte for byte rpc.ScanBatch.Append of the same pairs, for
// a stream whose frames end exactly at scanBatchSize pairs and for one
// whose first frame is cut by reseedChunkBytes.
func TestScanFramesMatchScanBatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pairs  int
		valLen int
		frames []int // pairs per frame
	}{
		{"at scanBatchSize", 2 * scanBatchSize, 20, []int{scanBatchSize, scanBatchSize}},
		{"cut by reseedChunkBytes", 20, 300 << 10, []int{14, 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lb := NewLoopback()
			testNode(t, lb, "n1", 1, NodeOptions{})
			createRegion(t, lb, "n1", 1, rpc.RolePrimary, nil)
			var want []pair
			var b WriteBatch
			for i := 0; i < tc.pairs; i++ {
				p := pair{[]byte(fmt.Sprintf("k-%05d", i)), bytes.Repeat([]byte{byte('a' + i%26)}, tc.valLen)}
				want = append(want, p)
				b.Put(p.key, p.value)
			}
			req := rpc.PutBatchReq{Region: 1, Epoch: 1, Payload: encodeBatchPayload(nil, b.muts)}
			if _, err := lb.Do(bg, "n1", rpc.OpPutBatch, req.Append(nil)); err != nil {
				t.Fatal(err)
			}
			var frames [][]byte
			scan := rpc.ScanReq{Region: 1, Epoch: 1}
			err := lb.Stream(bg, "n1", rpc.OpScan, scan.Append(nil), func(op byte, p []byte) (bool, error) {
				if op == rpc.OpScanBatch {
					frames = append(frames, bytes.Clone(p))
				}
				return true, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var got []pair
			var sizes []int
			for i, f := range frames {
				var sb rpc.ScanBatch
				if err := sb.Decode(f); err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if enc := sb.Append(nil); !bytes.Equal(enc, f) {
					t.Fatalf("frame %d: %d bytes, rpc.ScanBatch.Append of its pairs %d, or other bytes", i, len(f), len(enc))
				}
				sizes = append(sizes, len(sb.Keys))
				for j := range sb.Keys {
					got = append(got, pair{sb.Keys[j], sb.Vals[j]})
				}
			}
			if fmt.Sprint(sizes) != fmt.Sprint(tc.frames) {
				t.Fatalf("frames of %v pairs, want %v", sizes, tc.frames)
			}
			if len(got) != len(want) {
				t.Fatalf("%d pairs, want %d", len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i].key, want[i].key) || !bytes.Equal(got[i].value, want[i].value) {
					t.Fatalf("pair %d is %q, want %q", i, got[i].key, want[i].key)
				}
			}
		})
	}
}
