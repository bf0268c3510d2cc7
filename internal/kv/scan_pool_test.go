package kv

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// poolKeys is the key count of the worker-pool tests: one single-key
// range each, far more tasks than any store has scan workers.
const poolKeys = 600

func poolKey(i int) string { return fmt.Sprintf("%d-%05d", i%10, i) }

// poolStores holds poolKeys keys on a standalone Cluster and on a
// Router over three Loopback region nodes.
func poolStores(t *testing.T) map[string]Store {
	t.Helper()
	_, _, r := startRouterCluster(t, 3, NodeOptions{}, fastRetry(RouterOptions{}))
	var b WriteBatch
	for i := 0; i < poolKeys; i++ {
		b.Put([]byte(poolKey(i)), []byte(fmt.Sprint(i)))
	}
	if err := r.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"cluster": pipelineCluster(t, poolKeys), "router": r}
}

// poolRanges is one single-key range per stored key, in descending key
// order: no range starts at or after the previous one's end, so the
// Router cannot join two into one run and both stores plan one task
// per range.
func poolRanges() []KeyRange {
	keys := make([]string, poolKeys)
	for i := range keys {
		keys[i] = poolKey(i)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	ranges := make([]KeyRange, len(keys))
	for i, k := range keys {
		ranges[i] = KeyRange{Start: []byte(k), End: []byte(k + "\x00")}
	}
	return ranges
}

// TestScanCollectBoundedWorkers scans hundreds of single-key tasks and
// samples the goroutine count inside the collector: the scan runs on at
// most scanWidth workers (plus the goroutine that closes their channel),
// not one goroutine per task, and every pair still arrives exactly once.
func TestScanCollectBoundedWorkers(t *testing.T) {
	for name, s := range poolStores(t) {
		t.Run(name, func(t *testing.T) {
			ranges := poolRanges()
			tasks0 := atomic.LoadInt64(&s.metrics().ScanTasks)
			base := runtime.NumGoroutine()
			var peak atomic.Int64
			var got []string
			err := scanEach(bg, s, ranges, func(k, v []byte) (string, bool, error) {
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n) // racy max; a lost update only lowers it
				}
				return string(k), true, nil
			}, func(k string) bool { got = append(got, k); return true })
			if err != nil {
				t.Fatal(err)
			}
			if n := atomic.LoadInt64(&s.metrics().ScanTasks) - tasks0; n != poolKeys {
				t.Fatalf("planned %d tasks, want one per range (%d)", n, poolKeys)
			}
			if limit := int64(base + s.scanWidth() + 2); peak.Load() > limit {
				t.Fatalf("peak %d goroutines during the scan, want ≤ %d (base %d + %d workers + 2)",
					peak.Load(), limit, base, s.scanWidth())
			}
			seen := make(map[string]int, len(got))
			for _, k := range got {
				seen[k]++
			}
			for i := 0; i < poolKeys; i++ {
				if n := seen[poolKey(i)]; n != 1 {
					t.Fatalf("key %s arrived %d times, want once", poolKey(i), n)
				}
			}
			if len(got) != poolKeys {
				t.Fatalf("scan delivered %d pairs, want %d", len(got), poolKeys)
			}
		})
	}
}

// tagged is a batch that names the collector that built it.
type tagged struct {
	from int
	keys []string
}

// TestScanCollectWorkerSpansTasks pins the collector contract: one
// collector per worker, fed by all of that worker's tasks, whose Finish
// runs at most once; an error in a later task of a worker fails the scan
// and drops that worker's partial batch; an early stop leaves pairs
// unscanned and counts only the batch emit received.
func TestScanCollectWorkerSpansTasks(t *testing.T) {
	for name, s := range poolStores(t) {
		t.Run(name, func(t *testing.T) {
			ranges := poolRanges()
			met := s.metrics()

			// collectors builds TaskCollectors that hold up to size keys a
			// batch and fail on the poison key; finishes counts each
			// collector's Finish calls and pairs its Add calls.
			var (
				mu       sync.Mutex
				finishes []int
				pairs    []int
				poisoned = -1 // the collector that met the poison key
			)
			collectors := func(size int, poison string, boom error) func() TaskCollector[tagged] {
				finishes, pairs, poisoned = nil, nil, -1
				return func() TaskCollector[tagged] {
					mu.Lock()
					id := len(finishes)
					finishes = append(finishes, 0)
					pairs = append(pairs, 0)
					mu.Unlock()
					var keys []string
					return TaskCollector[tagged]{
						Add: func(k, v []byte) (tagged, bool, error) {
							mu.Lock()
							pairs[id]++
							mu.Unlock()
							if string(k) == poison {
								mu.Lock()
								poisoned = id
								mu.Unlock()
								return tagged{}, false, boom
							}
							if keys = append(keys, string(k)); len(keys) < size {
								return tagged{}, false, nil
							}
							full := tagged{id, keys}
							keys = nil
							return full, true, nil
						},
						Finish: func() (tagged, bool, error) {
							mu.Lock()
							finishes[id]++
							mu.Unlock()
							return tagged{id, keys}, len(keys) > 0, nil
						},
					}
				}
			}

			// A full scan: every collector spans many tasks and finishes once.
			var got []string
			if err := ScanCollect(bg, s, ranges, collectors(poolKeys, "", nil), func(b tagged) bool {
				got = append(got, b.keys...)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != poolKeys {
				t.Fatalf("full scan delivered %d pairs, want %d", len(got), poolKeys)
			}
			if len(finishes) > s.scanWidth() {
				t.Fatalf("%d collectors for %d workers", len(finishes), s.scanWidth())
			}
			for id, n := range finishes {
				if n != 1 {
					t.Fatalf("collector %d finished %d times, want once", id, n)
				}
			}

			// The poison key's range is the plan's last task, so whichever
			// worker takes it has run earlier tasks into its partial batch.
			boom := errors.New("poison pair")
			poison := string(ranges[len(ranges)-1].Start)
			var emitted []tagged
			err := ScanCollect(bg, s, ranges, collectors(poolKeys, poison, boom), func(b tagged) bool {
				emitted = append(emitted, b)
				return true
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
			for id, n := range finishes {
				if n > 1 {
					t.Fatalf("collector %d finished %d times, want at most once", id, n)
				}
			}
			failed := poisoned
			if failed < 0 || pairs[failed] < 2 {
				t.Fatalf("no collector ran the poison task after earlier ones (poisoned %d, pairs %v)", failed, pairs)
			}
			if finishes[failed] != 0 {
				t.Fatal("the failed worker's collector was finished")
			}
			for _, b := range emitted {
				if b.from == failed {
					t.Fatalf("the failed worker's partial batch (%d keys) reached emit", len(b.keys))
				}
			}

			// Early stop on the first one-pair batch: the rest of the plan
			// is not scanned, and only the batch emit saw counts as decoded.
			pairs0 := atomic.LoadInt64(&met.ScanPairs)
			batches0 := atomic.LoadInt64(&met.BatchesDecoded)
			calls := 0
			if err := ScanCollect(bg, s, ranges, collectors(1, "", nil), func(tagged) bool {
				calls++
				return false
			}); err != nil {
				t.Fatal(err)
			}
			if calls != 1 {
				t.Fatalf("emit ran %d times after returning false on its first call", calls)
			}
			if n := atomic.LoadInt64(&met.ScanPairs) - pairs0; n >= poolKeys {
				t.Fatalf("early stop still scanned %d pairs, want < %d", n, poolKeys)
			}
			if n := atomic.LoadInt64(&met.BatchesDecoded) - batches0; n != 1 {
				t.Fatalf("BatchesDecoded grew by %d, want 1 (the one batch emit received)", n)
			}
		})
	}
}

// raceEnabled is set by race_test.go in -race builds, where sync.Pool
// drops a random quarter of what it is handed.
var raceEnabled bool

// TestScanAllocsPerRange: a standalone scan pays per worker, not per
// range. ScanCollect over 256 one-pair ranges allocates less than one
// object more per extra range than over 16, because each task re-arms a
// merge an earlier task recycled and a worker's tasks share one emit.
// Ten of the keys are rewritten in the active memtable, so merges also
// copy memtable entries, and 120 in a summarised table that holds the
// first and last of the ten prefixes, so each range also runs the
// summary check and most pass the table over. Under -race the pool's drops cost
// allocations, so only the scan's result is checked there.
func TestScanAllocsPerRange(t *testing.T) {
	c := pipelineCluster(t, poolKeys)
	c.RegisterKeyFamily(nil, KeyFamily{PrefixLen: len("0-")})
	var b WriteBatch
	for i := 0; i < poolKeys; i++ {
		if i%10 == 0 || i%10 == 9 {
			b.Put([]byte(poolKey(i)), []byte("summarised"))
		}
	}
	if err := c.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	for i := 0; i < poolKeys; i += poolKeys / 10 {
		b.Put([]byte(poolKey(i)), []byte("new"))
	}
	if err := c.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	ranges := poolRanges()
	count := func() TaskCollector[int] {
		n := 0
		return TaskCollector[int]{
			Add:    func(k, v []byte) (int, bool, error) { n++; return 0, false, nil },
			Finish: func() (int, bool, error) { return n, true, nil },
		}
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(50, func() {
			got := 0
			if err := ScanCollect(bg, c, ranges[:n], count, func(k int) bool { got += k; return true }); err != nil {
				t.Fatal(err)
			}
			if got != n {
				t.Fatalf("scan of %d one-pair ranges collected %d pairs", n, got)
			}
		})
	}
	m0 := c.Metrics()
	small, large := allocs(16), allocs(256)
	if m := c.Metrics(); m.TablesSkipped == m0.TablesSkipped || m.BlocksTouched == m0.BlocksTouched || m.Tables != 2 {
		t.Fatalf("tables_skipped +%d, blocks_touched +%d, tables %d: want the summarised table passed over, blocks counted, 2 tables",
			m.TablesSkipped-m0.TablesSkipped, m.BlocksTouched-m0.BlocksTouched, m.Tables)
	}
	perRange := (large - small) / (256 - 16)
	t.Logf("%.0f allocations at 16 ranges, %.0f at 256: %.3f per extra range", small, large, perRange)
	if !raceEnabled && perRange >= 1 {
		t.Fatalf("%.3f allocations per extra range, want < 1", perRange)
	}
}
