package kv

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines asserts the goroutine count settles back to at most
// base (plus slack for runtime helpers).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: base=%d now=%d", base, runtime.NumGoroutine())
}

func TestScanCollectCtxPreCanceled(t *testing.T) {
	c := pipelineCluster(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := scanPairs(ctx, c, pipelineRanges, func(k, v []byte) bool { return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestScanCollectCtxCancelMidScan cancels the context from inside the
// emit callback and verifies the scan aborts with context.Canceled and
// every worker goroutine drains.
func TestScanCollectCtxCancelMidScan(t *testing.T) {
	c := pipelineCluster(t, 5000)
	base := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		err := scanPairs(ctx, c, pipelineRanges, func(k, v []byte) bool {
			n++
			if n == 10 {
				cancel()
			}
			// Slow consumption so the scan cannot complete before the
			// cancellation propagates (a finished scan returns nil).
			time.Sleep(50 * time.Microsecond)
			return true // keep asking; the context does the stopping
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: err = %v, want context.Canceled", round, err)
		}
		if n >= 5000 {
			t.Fatalf("round %d: cancel did not stop the scan (%d rows emitted)", round, n)
		}
	}
	waitGoroutines(t, base)
}

// TestScanRangeCtxCancelMidRange cancels the serial face inside its one
// range: the scan stops at a later pair of the same range with
// context.Canceled instead of running the range to its end.
func TestScanRangeCtxCancelMidRange(t *testing.T) {
	const n = 2000
	c := pipelineCluster(t, n)
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	seen := 0
	err := ScanRange(ctx, c, KeyRange{}, func(k, v []byte) bool {
		if seen++; seen == 10 {
			cancel()
		}
		// Slow consumption so the range cannot end before the
		// cancellation propagates.
		time.Sleep(50 * time.Microsecond)
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen >= n {
		t.Fatalf("cancel did not stop the range (%d pairs emitted)", seen)
	}
}

// TestScanCollectCtxDeadline gives a pipelined scan a deadline far
// shorter than the scan needs (the process stage is artificially slow)
// and verifies the workers abort with DeadlineExceeded and drain.
func TestScanCollectCtxDeadline(t *testing.T) {
	c := pipelineCluster(t, 5000)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	n := 0
	err := scanEach(ctx, c, pipelineRanges,
		func(k, v []byte) ([]byte, bool, error) {
			time.Sleep(100 * time.Microsecond)
			return append([]byte(nil), v...), true, nil
		},
		func([]byte) bool { n++; return true })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if n >= 5000 {
		t.Fatal("deadline did not stop the scan")
	}
	waitGoroutines(t, base)
}

// TestScanCollectCtxCancelWithDownServer exercises cancellation racing a
// region-server failure: scans canceled while the primary's server is
// partitioned must not wedge or leak workers, and the router keeps
// serving every row afterwards from the promoted replica.
func TestScanCollectCtxCancelWithDownServer(t *testing.T) {
	lb, _, r := startRouterCluster(t, 3, NodeOptions{}, fastRetry(RouterOptions{Replicas: 1}))
	var b WriteBatch
	for i := 0; i < 3000; i++ {
		b.Put([]byte(fmt.Sprintf("%d-%05d", i%10, i)), []byte("v"))
	}
	if err := r.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		if round == 2 {
			lb.SetDown("s1", true)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		err := scanPairs(ctx, r, []KeyRange{{}}, func(k, v []byte) bool {
			time.Sleep(50 * time.Microsecond)
			return true
		})
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: err = %v", round, err)
		}
	}
	n := 0
	if err := scanPairs(bg, r, []KeyRange{{}}, func(k, v []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 3000 {
		t.Fatalf("post-chaos scan = %d rows, want 3000", n)
	}
	if m := r.Metrics(); m.Failovers == 0 {
		t.Fatal("Failovers = 0: the scans never met the partitioned primary")
	}
	lb.SetDown("s1", false)
	waitGoroutines(t, base)
}
