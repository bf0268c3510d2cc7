package main

import (
	"context"
	"errors"
	"flag"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"just/internal/core"
	"just/internal/jobs"
	"just/internal/kv"
)

// parseJobFlags parses args the way main parses the -job-* flags.
func parseJobFlags(t *testing.T, args ...string) jobs.Options {
	t.Helper()
	fs := flag.NewFlagSet("just-server", flag.ContinueOnError)
	opts := jobFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return opts()
}

// openEngine opens an engine with the scheduler options as main does for
// the standalone and router roles, and returns its scheduler.
func openEngine(t *testing.T, opts jobs.Options) *jobs.Scheduler {
	t.Helper()
	eng, err := core.Open(core.Config{
		Dir:     t.TempDir(),
		Jobs:    opts,
		Cluster: kv.ClusterOptions{Options: kv.Options{DisableWAL: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng.Jobs()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(deadline time.Duration, cond func() bool) bool {
	for end := time.Now().Add(deadline); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestJobCompactConcurrencyFlag: -job-compact-concurrency is how many
// compactions run at once; one more waits until a slot frees.
func TestJobCompactConcurrencyFlag(t *testing.T) {
	for _, n := range []int{1, 3} {
		sched := openEngine(t, parseJobFlags(t, "-job-compact-concurrency", strconv.Itoa(n)))
		var running atomic.Int32
		release := make(chan struct{})
		done := make(chan error, n+1)
		for i := 0; i <= n; i++ {
			go func() {
				done <- sched.Do(context.Background(), jobs.ClassCompact, func(context.Context) error {
					running.Add(1)
					<-release
					return nil
				})
			}()
		}
		if !waitFor(5*time.Second, func() bool { return running.Load() == int32(n) }) {
			t.Fatalf("-job-compact-concurrency %d: %d compactions started", n, running.Load())
		}
		time.Sleep(50 * time.Millisecond)
		if got := running.Load(); got != int32(n) {
			t.Fatalf("-job-compact-concurrency %d: %d compactions ran at once", n, got)
		}
		close(release)
		for i := 0; i <= n; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		if got := running.Load(); got != int32(n+1) {
			t.Fatalf("-job-compact-concurrency %d: %d of %d compactions ran", n, got, n+1)
		}
	}
}

// TestJobDiskLowFlag: with -job-disk-low above any disk's free space the
// watchdog reports pressure and refuses every class but flush; without
// it the watchdog is off.
func TestJobDiskLowFlag(t *testing.T) {
	run := func(sched *jobs.Scheduler, c jobs.Class) error {
		return sched.Do(context.Background(), c, func(context.Context) error { return nil })
	}
	sched := openEngine(t, parseJobFlags(t, "-job-disk-low", strconv.FormatInt(1<<62, 10)))
	if !waitFor(5*time.Second, sched.Pressured) {
		t.Fatal("-job-disk-low 2^62: no disk pressure")
	}
	if free := sched.DiskFree(); free < 0 || free >= 1<<62 {
		t.Fatalf("-job-disk-low 2^62: probed %d free bytes", free)
	}
	if err := run(sched, jobs.ClassCompact); !errors.Is(err, jobs.ErrDiskPressure) {
		t.Fatalf("compaction under pressure = %v, want ErrDiskPressure", err)
	}
	if err := run(sched, jobs.ClassFlush); err != nil {
		t.Fatalf("flush under pressure = %v", err)
	}

	sched = openEngine(t, parseJobFlags(t))
	time.Sleep(50 * time.Millisecond)
	if sched.Pressured() || sched.DiskFree() != -1 {
		t.Fatalf("no -job-disk-low: pressured %v, probed %d free bytes", sched.Pressured(), sched.DiskFree())
	}
	if err := run(sched, jobs.ClassCompact); err != nil {
		t.Fatalf("compaction without the watchdog = %v", err)
	}
}

// TestJobDiskCheckFlag: -job-disk-check is the watchdog's probe period.
// At 10ms it probes many times before the default 2s period would have
// probed a second time.
func TestJobDiskCheckFlag(t *testing.T) {
	probes := func(args ...string) func() int64 {
		opts := parseJobFlags(t, append([]string{"-job-disk-low", "1"}, args...)...)
		var n atomic.Int64
		opts.DiskProbe = func(string) (int64, error) { n.Add(1); return 1 << 40, nil }
		openEngine(t, opts)
		return n.Load
	}
	fast := probes("-job-disk-check", "10ms")
	if !waitFor(1500*time.Millisecond, func() bool { return fast() >= 5 }) {
		t.Fatalf("-job-disk-check 10ms: %d probes in 1.5s", fast())
	}
	slow := probes()
	time.Sleep(300 * time.Millisecond)
	if got := slow(); got != 1 {
		t.Fatalf("default -job-disk-check: %d probes in 300ms, want 1", got)
	}
}
