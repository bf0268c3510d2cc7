package jobs

import (
	"context"
	"errors"
	"runtime"
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
	s := New(Options{Classes: map[Class]ClassConfig{
		ClassFlush: {Retry: RetryPolicy{MaxAttempts: 4, Base: time.Millisecond, Cap: 4 * time.Millisecond}},
	}})
	defer s.Close()

	var calls int32
	err := s.Do(context.Background(), ClassFlush, func(context.Context) error {
		if atomic.AddInt32(&calls, 1) <= 2 {
			return errors.New("transient")
		}
		return nil
	})
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
}

func TestPanicIsolationAndQuarantine(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Options{
		QuarantineAfter:    3,
		QuarantineCooldown: time.Hour,
		Classes: map[Class]ClassConfig{
			ClassCompact: {Retry: RetryPolicy{MaxAttempts: 1}},
		},
	})

	boom := func(context.Context) error { panic("maintenance bug") }
	for i := 0; i < 3; i++ {
		err := s.Do(context.Background(), ClassCompact, boom)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("run %d: err = %v, want PanicError", i, err)
		}
	}
	// Class is now quarantined: runs are refused with the typed error
	// and the job function no longer executes.
	var ran int32
	err := s.Do(context.Background(), ClassCompact, func(context.Context) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined Do err = %v, want ErrQuarantined", err)
	}
	var qe *QuarantineError
	if !errors.As(err, &qe) || qe.Class != ClassCompact {
		t.Fatalf("err = %#v, want QuarantineError{Class: compact}", err)
	}
	if atomic.LoadInt32(&ran) != 0 {
		t.Fatal("job ran while class quarantined")
	}
	m := s.Metrics()[string(ClassCompact)]
	if m.Panics != 3 || m.Failed != 3 || m.Quarantined != 1 {
		t.Fatalf("metrics = %+v, want Panics=3 Failed=3 Quarantined=1", m)
	}
	if s.Healthy() {
		t.Fatal("scheduler healthy with a quarantined class")
	}
	var quarantined []Class
	for _, cs := range s.Snapshot().Classes {
		if cs.Quarantined {
			quarantined = append(quarantined, cs.Class)
		}
	}
	if len(quarantined) != 1 || quarantined[0] != ClassCompact {
		t.Fatalf("quarantined classes = %v, want [compact]", quarantined)
	}

	// Operator resume restores the class.
	s.Resume(ClassCompact)
	if err := s.Do(context.Background(), ClassCompact, func(context.Context) error { return nil }); err != nil {
		t.Fatalf("Do after Resume: %v", err)
	}
	if !s.Healthy() {
		t.Fatal("scheduler unhealthy after resume")
	}
	s.Close()
	checkGoroutines(t, base)
}

func TestQuarantineCooldownReadmitsHalfOpen(t *testing.T) {
	s := New(Options{QuarantineAfter: 2, QuarantineCooldown: 20 * time.Millisecond,
		Classes: map[Class]ClassConfig{ClassScrub: {Retry: RetryPolicy{MaxAttempts: 1}}}})
	defer s.Close()

	fail := func(context.Context) error { return errors.New("bad sector") }
	for i := 0; i < 2; i++ {
		if err := s.Do(context.Background(), ClassScrub, fail); err == nil {
			t.Fatal("want error")
		}
	}
	if err := s.Do(context.Background(), ClassScrub, fail); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("err = %v, want ErrQuarantined", err)
	}
	time.Sleep(30 * time.Millisecond)
	// Half-open after cooldown: one run is admitted; its failure
	// re-quarantines immediately.
	if err := s.Do(context.Background(), ClassScrub, fail); errors.Is(err, ErrQuarantined) {
		t.Fatalf("cooldown did not re-admit: %v", err)
	}
	if err := s.Do(context.Background(), ClassScrub, fail); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("half-open failure did not re-quarantine: %v", err)
	}
	// And a half-open success fully restores the class.
	time.Sleep(30 * time.Millisecond)
	if err := s.Do(context.Background(), ClassScrub, func(context.Context) error { return nil }); err != nil {
		t.Fatalf("half-open success: %v", err)
	}
	if !s.Healthy() {
		t.Fatal("unhealthy after recovery")
	}
}

func TestPeriodicJobRunsAndDeregisterStops(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Options{})
	var runs int32
	if err := s.Register(Spec{
		Name:     "tick",
		Class:    ClassStats,
		Interval: 5 * time.Millisecond,
		Fn:       func(context.Context) error { atomic.AddInt32(&runs, 1); return nil },
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for atomic.LoadInt32(&runs) < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if atomic.LoadInt32(&runs) < 3 {
		t.Fatalf("periodic job ran %d times, want >= 3", runs)
	}
	if err := s.Deregister("tick"); err != nil {
		t.Fatal(err)
	}
	got := atomic.LoadInt32(&runs)
	time.Sleep(25 * time.Millisecond)
	if after := atomic.LoadInt32(&runs); after != got {
		t.Fatalf("job still running after Deregister: %d -> %d", got, after)
	}
	s.Close()
	checkGoroutines(t, base)
}

func TestRunNowJoinsInflightRun(t *testing.T) {
	s := New(Options{})
	defer s.Close()

	var execs int32
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	if err := s.Register(Spec{
		Name:  "scrub-all",
		Class: ClassScrub,
		Fn: func(context.Context) error {
			atomic.AddInt32(&execs, 1)
			started <- struct{}{}
			<-release
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 3)
	wg.Add(1)
	go func() { defer wg.Done(); errs[0] = s.RunNow(context.Background(), "scrub-all") }()
	<-started // first run is in flight
	wg.Add(2)
	go func() { defer wg.Done(); errs[1] = s.RunNow(context.Background(), "scrub-all") }()
	go func() { defer wg.Done(); errs[2] = s.RunNow(context.Background(), "scrub-all") }()
	time.Sleep(10 * time.Millisecond) // let the joiners enqueue
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("RunNow %d: %v", i, err)
		}
	}
	if got := atomic.LoadInt32(&execs); got != 1 {
		t.Fatalf("executions = %d, want 1 (joiners must dedupe)", got)
	}
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
	if err := s.Register(Spec{
		Name:         "stats-auto",
		Class:        ClassStats,
		TriggerAfter: []Class{ClassCompact},
		Fn:           func(context.Context) error { atomic.AddInt32(&statsRuns, 1); return nil },
	}); err != nil {
		t.Fatal(err)
	}
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
	s := New(Options{Classes: map[Class]ClassConfig{ClassCompact: {MaxConcurrent: 2}}})
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

func TestPauseResume(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	s.Pause(ClassCompact)
	err := s.Do(context.Background(), ClassCompact, func(context.Context) error { return nil })
	if !errors.Is(err, ErrPaused) {
		t.Fatalf("err = %v, want ErrPaused", err)
	}
	s.Resume(ClassCompact)
	if err := s.Do(context.Background(), ClassCompact, func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
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
	for i := 0; i < 3; i++ {
		name := []string{"a", "b", "c"}[i]
		if err := s.Register(Spec{Name: name, Class: ClassStats, Interval: time.Millisecond,
			Fn: func(context.Context) error { return nil }}); err != nil {
			t.Fatal(err)
		}
	}
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
	if s.Healthy() {
		t.Fatal("closed scheduler reports healthy")
	}
	checkGoroutines(t, base)
}

func TestSnapshotReportsJobHistory(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	var n int32
	if err := s.Register(Spec{Name: "j", Class: ClassStats, Fn: func(context.Context) error {
		if atomic.AddInt32(&n, 1) == 2 {
			return errors.New("second run fails")
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	const runs = historyDepth + 2
	for i := 0; i < runs; i++ {
		_ = s.RunNow(context.Background(), "j")
	}
	st := s.Snapshot()
	if len(st.Jobs) != 1 || st.Jobs[0].Name != "j" {
		t.Fatalf("snapshot jobs = %+v", st.Jobs)
	}
	js := st.Jobs[0]
	if js.Runs != runs || js.Fails != 1 {
		t.Fatalf("runs=%d fails=%d, want %d/1", js.Runs, js.Fails, runs)
	}
	if len(js.History) != historyDepth {
		t.Fatalf("history depth = %d, want %d (trimmed)", len(js.History), historyDepth)
	}
	for _, rec := range js.History {
		if rec.Err != "" {
			t.Fatalf("history kept the failed second run: %+v", js.History)
		}
	}
	if !st.Healthy {
		t.Fatal("snapshot unhealthy")
	}
}
