package kv

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// pipelineRanges cover the whole key space in five ranges, so a scan
// of them fans out into five tasks — enough to exercise the parallel
// path (plans of ≤ maxSerialScanTasks tasks run inline).
var pipelineRanges = []KeyRange{
	{End: []byte("2")},
	{Start: []byte("2"), End: []byte("4")},
	{Start: []byte("4"), End: []byte("6")},
	{Start: []byte("6"), End: []byte("8")},
	{Start: []byte("8")},
}

// pipelineCluster builds a cluster holding n keys "d-iiiii" (d = i%10)
// valued i, spread over pipelineRanges.
func pipelineCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c := newTestCluster(t, ClusterOptions{})
	var b WriteBatch
	for i := 0; i < n; i++ {
		b.Put([]byte(fmt.Sprintf("%d-%05d", i%10, i)), []byte(strconv.Itoa(i)))
	}
	if err := c.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestScanCollectProcessAndFilter(t *testing.T) {
	const n = 3000
	c := pipelineCluster(t, n)
	var mu sync.Mutex
	var got []int
	err := scanEach(bg, c, pipelineRanges,
		func(k, v []byte) (int, bool, error) {
			i, err := strconv.Atoi(string(v))
			if err != nil {
				return 0, false, err
			}
			return i, i%2 == 0, nil // keep evens only
		},
		func(i int) bool {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n/2 {
		t.Fatalf("kept %d rows, want %d", len(got), n/2)
	}
	for _, i := range got {
		if i%2 != 0 {
			t.Fatalf("filtered-out value %d delivered", i)
		}
	}
	m := c.Metrics()
	if m.ScanTasks != 5 {
		t.Errorf("ScanTasks = %d, want 5 (one per range)", m.ScanTasks)
	}
	if m.ScanPairs != n {
		t.Errorf("ScanPairs = %d, want %d", m.ScanPairs, n)
	}
	if m.BatchesDecoded == 0 {
		t.Error("BatchesDecoded = 0, want > 0")
	}
}

func TestScanCollectProcessErrorPropagates(t *testing.T) {
	boom := errors.New("decode failed")
	process := func(k, v []byte) ([]byte, bool, error) {
		if strings.HasSuffix(string(k), "00777") {
			return nil, false, boom
		}
		return append([]byte(nil), v...), true, nil
	}

	t.Run("parallel", func(t *testing.T) {
		c := pipelineCluster(t, 2000)
		err := scanEach(bg, c, pipelineRanges, process, func([]byte) bool { return true })
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	})

	t.Run("serial", func(t *testing.T) {
		// Single range: the inline path.
		c := newTestCluster(t, ClusterOptions{})
		for i := 0; i < 1000; i++ {
			put(c, []byte(fmt.Sprintf("k-%05d", i)), []byte("v"))
		}
		c.Flush()
		err := scanEach(bg, c, []KeyRange{{}}, process, func([]byte) bool { return true })
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	})
}

// TestScanCollectErrorBeatsCancel pins the deterministic error
// contract: a worker error must be reported even when the consumer
// cancels the scan concurrently. A poison pair blocks inside process
// until after emit has cancelled, then fails — the old non-blocking
// error pickup would have dropped it.
func TestScanCollectErrorBeatsCancel(t *testing.T) {
	c := pipelineCluster(t, 2000)
	boom := errors.New("late worker error")
	entered := make(chan struct{}) // poison pair reached process
	gate := make(chan struct{})    // holds the poison failure until cancel
	var enterOnce, gateOnce sync.Once
	err := scanEach(bg, c, pipelineRanges,
		func(k, v []byte) ([]byte, bool, error) {
			if strings.HasPrefix(string(k), "9-") {
				enterOnce.Do(func() { close(entered) })
				<-gate
				return nil, false, boom
			}
			return append([]byte(nil), v...), true, nil
		},
		func([]byte) bool {
			<-entered // poison is committed to failing
			gateOnce.Do(func() { close(gate) })
			return false // cancel the scan
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v (worker error dropped on cancel)", err, boom)
	}
}

func TestScanCollectEarlyStopReleasesWorkers(t *testing.T) {
	c := pipelineCluster(t, 5000)
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		n := 0
		err := scanEach(bg, c, pipelineRanges,
			func(k, v []byte) ([]byte, bool, error) {
				return append([]byte(nil), v...), true, nil
			},
			func([]byte) bool {
				n++
				return n < 5
			})
		if err != nil {
			t.Fatal(err)
		}
		if n != 5 {
			t.Fatalf("emit called %d times, want 5", n)
		}
	}
	// All scan goroutines must have drained; allow the runtime a moment.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestDeleteBatch(t *testing.T) {
	c := pipelineCluster(t, 1000)
	var doomed [][]byte
	for i := 0; i < 1000; i += 2 {
		doomed = append(doomed, []byte(fmt.Sprintf("%d-%05d", i%10, i)))
	}
	var b WriteBatch
	for _, k := range doomed {
		b.Delete(k)
	}
	if err := c.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	for _, k := range doomed {
		if _, err := c.GetCtx(bg, k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%s) after DeleteBatch = %v, want ErrNotFound", k, err)
		}
	}
	// Survivors intact.
	n := 0
	if err := ScanRange(bg, c, KeyRange{}, func(k, v []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("%d keys survive, want 500", n)
	}
}

// TestFlushCompactParallel overwrites every flushed key, then flushes
// and compacts: every key reads its newest version afterwards.
func TestFlushCompactParallel(t *testing.T) {
	c := pipelineCluster(t, 2000)
	if m := c.Metrics(); m.Flushes == 0 {
		t.Error("Flushes = 0, want > 0")
	}
	// Overwrite everything so compaction has garbage to drop.
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("%d-%05d", i%10, i)
		if err := put(c, []byte(k), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i += 97 {
		k := fmt.Sprintf("%d-%05d", i%10, i)
		v, err := c.GetCtx(bg, []byte(k))
		if err != nil || string(v) != "v2" {
			t.Fatalf("Get(%s) after compact = %q, %v", k, v, err)
		}
	}
}
