package jobs

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkGoroutines asserts the test did not leak scheduler goroutines.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: base=%d now=%d", base, runtime.NumGoroutine())
}

func TestDoRetriesTransientFailure(t *testing.T) {
	s := New(Options{})
	defer s.Close()

	var calls int32
	flaky := func(context.Context) error {
		if atomic.AddInt32(&calls, 1) <= 2 {
			return errors.New("transient")
		}
		return nil
	}
	err := s.Do(context.Background(), ClassFlush, flaky)
	if err != nil {
		t.Fatalf("Do after retries: %v", err)
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Fatalf("calls = %d, want 3", got)
	}
	m := s.Metrics()[string(ClassFlush)]
	if m.Ran != 1 || m.Retried != 2 || m.Failed != 0 {
		t.Fatalf("metrics = %+v, want Ran=1 Retried=2 Failed=0", m)
	}

	// A nil scheduler (a region opened without one) keeps the retry.
	atomic.StoreInt32(&calls, 0)
	var none *Scheduler
	if err := none.Do(context.Background(), ClassFlush, flaky); err != nil || atomic.LoadInt32(&calls) != 3 {
		t.Fatalf("nil scheduler Do = %v after %d calls, want nil after 3", err, calls)
	}
}

func TestDoTurnsPanicIntoError(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Options{})

	boom := func(context.Context) error { panic("maintenance bug") }
	err := s.Do(context.Background(), ClassCompact, boom)
	if err == nil || !strings.Contains(err.Error(), "panicked: maintenance bug") {
		t.Fatalf("err = %v, want the panic as an error", err)
	}
	// The panic is retried like any other error, then counted as one
	// failed run; the class keeps admitting work.
	m := s.Metrics()[string(ClassCompact)]
	if m.Ran != 1 || m.Retried != 2 || m.Failed != 1 {
		t.Fatalf("metrics = %+v, want Ran=1 Retried=2 Failed=1", m)
	}
	if err := s.Do(context.Background(), ClassCompact, func(context.Context) error { return nil }); err != nil {
		t.Fatalf("Do after a panic: %v", err)
	}
	s.Close()
	checkGoroutines(t, base)
}

func TestDoSharedCollapsesConcurrentCallers(t *testing.T) {
	s := New(Options{})
	defer s.Close()

	var execs int32
	release := make(chan struct{})
	started := make(chan struct{})
	fn := func(context.Context) error {
		atomic.AddInt32(&execs, 1)
		close(started)
		<-release
		return nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = s.DoShared(context.Background(), ClassStats, "stats:t", fn) }()
	<-started
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() { defer wg.Done(); _ = s.DoShared(context.Background(), ClassStats, "stats:t", fn) }()
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := atomic.LoadInt32(&execs); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
}

func TestTriggerAfterRunsDependentJob(t *testing.T) {
	s := New(Options{})
	defer s.Close()

	var statsRuns int32
	s.AfterCompact(func(context.Context) error { atomic.AddInt32(&statsRuns, 1); return nil })
	if err := s.Do(context.Background(), ClassCompact, func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for atomic.LoadInt32(&statsRuns) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if atomic.LoadInt32(&statsRuns) == 0 {
		t.Fatal("stats job did not run after compaction success")
	}
	// A failed compaction must not trigger it again.
	before := atomic.LoadInt32(&statsRuns)
	_ = s.Do(context.Background(), ClassCompact, func(context.Context) error { return errors.New("nope") })
	time.Sleep(20 * time.Millisecond)
	if after := atomic.LoadInt32(&statsRuns); after != before {
		t.Fatalf("stats triggered by failed compaction: %d -> %d", before, after)
	}
}

func TestDiskPressureShedsLowPriorityClasses(t *testing.T) {
	var free atomic.Int64
	free.Store(100 << 20)
	s := New(Options{
		DiskFreeLow:       10 << 20,
		DiskCheckInterval: time.Millisecond,
		DiskProbe:         func(string) (int64, error) { return free.Load(), nil },
	})
	defer s.Close()

	waitPressure := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for s.Pressured() != want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if s.Pressured() != want {
			t.Fatalf("Pressured() != %v", want)
		}
	}
	waitPressure(false)

	free.Store(1 << 20) // below threshold
	waitPressure(true)

	// Low-priority classes (compact, scrub, stats, rebalance) are shed
	// with the typed error; flush keeps running.
	for _, c := range []Class{ClassCompact, ClassScrub, ClassStats, ClassRebalance} {
		err := s.Do(context.Background(), c, func(context.Context) error { return nil })
		if !errors.Is(err, ErrDiskPressure) {
			t.Fatalf("class %s under pressure: err = %v, want ErrDiskPressure", c, err)
		}
	}
	if err := s.Do(context.Background(), ClassFlush, func(context.Context) error { return nil }); err != nil {
		t.Fatalf("flush under pressure: %v (must keep running)", err)
	}
	if m := s.Metrics()[string(ClassCompact)]; m.Shed != 1 {
		t.Fatalf("compact Shed = %d, want 1", m.Shed)
	}

	free.Store(100 << 20)
	waitPressure(false)
	if err := s.Do(context.Background(), ClassCompact, func(context.Context) error { return nil }); err != nil {
		t.Fatalf("compact after pressure cleared: %v", err)
	}
}

func TestClassConcurrencyCap(t *testing.T) {
	s := New(Options{CompactConcurrency: 2})
	defer s.Close()

	var cur, peak int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Do(context.Background(), ClassCompact, func(context.Context) error {
				n := atomic.AddInt32(&cur, 1)
				mu.Lock()
				if n > peak {
					peak = n
				}
				mu.Unlock()
				time.Sleep(5 * time.Millisecond)
				atomic.AddInt32(&cur, -1)
				return nil
			})
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if peak > 2 {
		t.Fatalf("peak concurrency = %d, want <= 2", peak)
	}
}

func TestCloseCancelsRunsAndStopsLoops(t *testing.T) {
	base := runtime.NumGoroutine()
	var free atomic.Int64
	free.Store(100 << 20)
	s := New(Options{
		DiskFreeLow:       1,
		DiskCheckInterval: time.Millisecond,
		DiskProbe:         func(string) (int64, error) { return free.Load(), nil },
	})
	s.AfterCompact(func(context.Context) error { return nil })
	// A run blocked until its context ends: Close must cancel it.
	stuck := make(chan struct{})
	ran := make(chan error, 1)
	go func() {
		ran <- s.Do(context.Background(), ClassCompact, func(ctx context.Context) error {
			close(stuck)
			<-ctx.Done()
			return ctx.Err()
		})
	}()
	<-stuck
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-ran; !errors.Is(err, context.Canceled) {
		t.Fatalf("running Do after Close: %v, want context.Canceled", err)
	}
	if err := s.Do(context.Background(), ClassFlush, func(context.Context) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close: %v, want ErrClosed", err)
	}
	checkGoroutines(t, base)
}
