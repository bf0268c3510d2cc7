package kv

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"just/internal/jobs"
)

// Integration tests for the maintenance scheduler inside the storage
// engine: flush retry under transient faults, disk-pressure write-path
// degradation, scrub dedupe, and foreground latency bounds under a
// compaction storm.

// TestFlushRetriesTransientFsyncError: two injected fsync failures on
// the SSTable build are absorbed by the flush class's bounded retry —
// the third attempt succeeds, flushErr is never latched, and the region
// keeps serving (satellite of the jobs-orchestrator change).
func TestFlushRetriesTransientFsyncError(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{}, 7)
	ffs.Add(FaultRule{Pattern: "*.tmp", Op: OpSync, Kind: FaultErr, Prob: 1, Count: 2})
	sched := jobs.New(jobs.Options{})
	defer sched.Close()
	r, err := openRegion(0, dir, Options{FS: ffs, Jobs: sched}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := r.Put([]byte(fmt.Sprintf("k-%04d", i)), []byte("retry-me")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := r.flush(); err != nil {
		t.Fatalf("flush with transient fsync faults = %v, want nil (absorbed by retry)", err)
	}
	r.mu.RLock()
	latched := r.flushErr
	r.mu.RUnlock()
	if latched != nil {
		t.Fatalf("flushErr latched despite successful retry: %v", latched)
	}
	m := sched.Metrics()[string(jobs.ClassFlush)]
	if m.Retried < 2 {
		t.Fatalf("flush retried = %d, want >= 2 (two injected fsync faults)", m.Retried)
	}
	if m.Failed != 0 {
		t.Fatalf("flush failed runs = %d, want 0", m.Failed)
	}
	if v, err := r.Get([]byte("k-0100")); err != nil || string(v) != "retry-me" {
		t.Fatalf("get after retried flush: %q, %v", v, err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// TestDiskPressureDegradesWritePathAndRecovers drives a full pressure
// episode: the watchdog (fed by an injected probe) trips, low-priority
// maintenance is shed with typed errors, flush failures park the region
// in degraded mode instead of poisoning it, writers over the queue
// bound get ErrDiskPressure instead of stalling forever, reads keep
// working — and when space comes back everything drains and recovers.
func TestDiskPressureDegradesWritePathAndRecovers(t *testing.T) {
	base := runtime.NumGoroutine()
	var free atomic.Int64
	free.Store(10 << 20) // plenty
	sched := jobs.New(jobs.Options{
		DiskFreeLow:       1 << 20,
		DiskCheckInterval: time.Millisecond,
		DiskProbe:         func(string) (int64, error) { return free.Load(), nil },
	})
	ffs := NewFaultFS(OSFS{}, 11)
	c, err := OpenCluster(t.TempDir(), ClusterOptions{
		Options: Options{
			Jobs:          sched,
			FS:            ffs,
			MemtableBytes: 4 << 10,
			FlushQueue:    1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 256)
	put := func(i int) error {
		return put(c, []byte(fmt.Sprintf("k-%06d", i)), val)
	}
	for i := 0; i < 50; i++ {
		if err := put(i); err != nil {
			t.Fatalf("pre-pressure put: %v", err)
		}
	}

	// Trip the watchdog, then make every SSTable build fail like a full
	// disk would.
	free.Store(1 << 10)
	deadline := time.Now().Add(2 * time.Second)
	for !sched.Pressured() {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never tripped")
		}
		time.Sleep(time.Millisecond)
	}
	ffs.Add(FaultRule{Pattern: "*.tmp", Op: OpWrite, Kind: FaultErr, Prob: 1})

	// Low-priority classes are shed with a typed error.
	if err := c.Scrub(context.Background()); !errors.Is(err, ErrDiskPressure) {
		t.Fatalf("scrub under pressure = %v, want ErrDiskPressure", err)
	}
	if sched.Metrics()[string(jobs.ClassScrub)].Shed == 0 {
		t.Fatal("scrub shed counter did not increment")
	}

	// Writers eventually see the typed pressure error instead of a
	// permanent flush failure or an unbounded stall; the error must
	// arrive within the put call, not hang.
	var sawPressure bool
	deadline = time.Now().Add(10 * time.Second)
	for i := 50; time.Now().Before(deadline); i++ {
		err := put(i)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrDiskPressure) {
			t.Fatalf("write under pressure = %v, want ErrDiskPressure", err)
		}
		sawPressure = true
		break
	}
	if !sawPressure {
		t.Fatal("write path never surfaced ErrDiskPressure")
	}
	// Reads still serve from memtables and existing tables.
	if v, err := c.GetCtx(bg, []byte("k-000010")); err != nil || len(v) != len(val) {
		t.Fatalf("read during pressure: %d bytes, %v", len(v), err)
	}

	// Space comes back: faults clear, the watchdog sees free disk, the
	// parked flusher drains, and writes succeed again.
	ffs.Clear()
	free.Store(10 << 20)
	deadline = time.Now().Add(10 * time.Second)
	var recovered bool
	for time.Now().Before(deadline) {
		if err := put(1000000); err == nil {
			recovered = true
			break
		} else if !errors.Is(err, ErrDiskPressure) {
			t.Fatalf("write during recovery = %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("write path never recovered after pressure lifted")
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if v, err := c.GetCtx(bg, []byte("k-1000000")); err != nil || len(v) != len(val) {
		t.Fatalf("read after recovery: %d bytes, %v", len(v), err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	sched.Close()
	waitGoroutines(t, base)
}

// TestScrubRequestsDedupe: concurrent Scrub calls — the admin-endpoint
// storm shape — collapse onto in-flight passes through the scheduler's
// scrub job instead of each running its own sweep.
func TestScrubRequestsDedupe(t *testing.T) {
	c, err := OpenCluster(t.TempDir(), ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Enough data that one verification pass takes real time — the
	// callers below must overlap an in-flight pass to join it. The pass
	// must stay well past the runtime's ~10ms async-preemption quantum:
	// on GOMAXPROCS=1 a shorter CPU-bound pass runs to completion
	// without ever yielding to the queued callers, serializing them
	// into one pass each and proving nothing about dedupe.
	payload := make([]byte, 512)
	for i := 0; i < 48000; i++ {
		if err := put(c, []byte(fmt.Sprintf("k-%06d", i)), payload); err != nil {
			t.Fatal(err)
		}
		if i%6000 == 0 {
			c.Flush() // several tables, several passes of block CRCs
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	const callers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = c.Scrub(context.Background())
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent scrub %d: %v", i, err)
		}
	}
	// All callers released at once: the first pass (or first few — a
	// caller landing in the window between two passes starts a fresh
	// one) absorbs them. Without dedupe this is exactly `callers` runs.
	runs := c.Metrics().ScrubRuns
	if runs < 1 || runs > callers/2 {
		t.Fatalf("%d concurrent scrubs ran %d passes, want deduped (<= %d)", callers, runs, callers/2)
	}
}

// TestCompactionStormBoundsForegroundLatency: under a sustained write
// load that keeps the compactor busy (tiny memtables, aggressive
// MaxTables), the flush queue stays bounded and foreground point reads
// don't collapse — p99 during the storm stays within 2x the idle p99
// plus a scheduling-noise floor. The concurrency caps on the flush and
// compact classes are what keeps the storm from starving reads.
func TestCompactionStormBoundsForegroundLatency(t *testing.T) {
	c, err := OpenCluster(t.TempDir(), ClusterOptions{
		Options: Options{
			MemtableBytes: 8 << 10,
			MaxTables:     2,
			FlushQueue:    2,
			DisableWAL:    true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	val := make([]byte, 128)
	for i := 0; i < 2000; i++ {
		if err := put(c, []byte(fmt.Sprintf("base-%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}

	key := func(i int) []byte { return []byte(fmt.Sprintf("base-%06d", i%2000)) }
	// Gets are spaced out so a round's samples span over half a second
	// — long enough that the storm runs many flush/compact cycles inside
	// the measurement window instead of finishing after it.
	measure := func(n int) []time.Duration {
		out := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			if _, err := c.GetCtx(bg, key(i*13)); err != nil {
				t.Fatalf("get: %v", err)
			}
			out = append(out, time.Since(start))
			time.Sleep(3 * time.Millisecond)
		}
		return out
	}
	p99 := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)*99/100]
	}

	// Storm: writers churn the memtable fast enough that flush and
	// compaction run continuously for the whole measurement window.
	stormRound := func(round int) (p99Storm time.Duration, maxDepth int64) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					k := []byte(fmt.Sprintf("storm-%d-%d-%08d", round, w, i))
					if err := put(c, k, val); err != nil && !errors.Is(err, ErrClosed) {
						return
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if d := c.Metrics().FlushQueueDepth; d > maxDepth {
					maxDepth = d
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
		p99Storm = p99(measure(200))
		close(stop)
		wg.Wait()
		return p99Storm, maxDepth
	}

	// Idle and storm rounds alternate and each side keeps its fastest
	// round, so a burst of load from a sibling test package lands on
	// both sides instead of on the storm alone. Before each idle round
	// the store is flushed and fully compacted, so no flush or merge
	// left over from the previous storm runs while idle is sampled.
	const rounds = 3
	idle, storm := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	var stormCompactions, maxDepth int64
	for round := 0; round < rounds; round++ {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := c.Compact(); err != nil {
			t.Fatal(err)
		}
		idle = min(idle, p99(measure(200)))
		before := c.Metrics().Compactions
		s, depth := stormRound(round)
		stormCompactions += c.Metrics().Compactions - before
		storm, maxDepth = min(storm, s), max(maxDepth, depth)
	}

	if stormCompactions == 0 {
		t.Fatal("no compactions ran during the measurement window; the test measured nothing")
	}
	// Writers stall once the queue passes FlushQueue, so depth can touch
	// FlushQueue+1 transiently but must not grow without bound.
	if maxDepth > int64(2+2) {
		t.Fatalf("flush queue depth reached %d, want bounded near FlushQueue=2", maxDepth)
	}
	// The latency bound needs a floor: idle p99 on a fast machine is
	// microseconds, where doubling is meaningless scheduler noise.
	limit := 2*idle + 50*time.Millisecond
	if storm > limit {
		t.Fatalf("storm p99 %v exceeds bound %v (idle p99 %v)", storm, limit, idle)
	}
	t.Logf("idle p99 %v, storm p99 %v, max flush-queue depth %d", idle, storm, maxDepth)
}

// TestRouterRebalanceTicker: with RebalanceInterval set, the router runs
// the rebalance pass on its own ticker through the scheduler's rebalance
// class, and Close stops the ticker.
func TestRouterRebalanceTicker(t *testing.T) {
	sched := jobs.New(jobs.Options{})
	defer sched.Close()
	_, _, r := startRouterCluster(t, 2, NodeOptions{},
		RouterOptions{RebalanceInterval: 5 * time.Millisecond, Jobs: sched})
	ran := func() int64 { return sched.Metrics()[string(jobs.ClassRebalance)].Ran }
	deadline := time.Now().Add(10 * time.Second)
	for ran() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("rebalance ticker ran %d passes, want >= 2", ran())
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	after := ran()
	time.Sleep(20 * time.Millisecond)
	if got := ran(); got != after {
		t.Fatalf("rebalance ran after Close: %d -> %d", after, got)
	}
}
