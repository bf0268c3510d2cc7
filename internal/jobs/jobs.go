// Package jobs runs the engine's background maintenance the way a
// region server's fixed thread pools do: Do runs a job under its
// class's buffered-channel semaphore, retries flush and compaction, and
// turns a panic into an error; DoShared lets concurrent callers join one
// in-flight run; a disk-pressure watchdog refuses every class but flush
// while free space is low. Do and Pressured accept a nil *Scheduler:
// Do then retries with no cap and no counters.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Class names a kind of maintenance work; it selects the concurrency
// cap and the retry budget.
type Class string

// The maintenance classes.
const (
	ClassFlush     Class = "flush"
	ClassCompact   Class = "compact"
	ClassScrub     Class = "scrub"
	ClassStats     Class = "stats"
	ClassRebalance Class = "rebalance"
)

var (
	// ErrClosed reports a scheduler that has been shut down.
	ErrClosed = errors.New("jobs: scheduler closed")
	// ErrDiskPressure reports a run refused because free disk space is
	// below the configured threshold. The kv write path re-exports it.
	ErrDiskPressure = errors.New("jobs: disk pressure: free space below threshold")
)

// specs is each class's concurrency cap and attempt budget; the delay
// before attempt i+1 is min(base<<i, ceil) drawn uniformly from [d/2, d].
var specs = map[Class]struct {
	cap, attempts int
	base, ceil    time.Duration
}{
	ClassFlush:     {8, 4, 5 * time.Millisecond, 250 * time.Millisecond},
	ClassCompact:   {2, 3, 10 * time.Millisecond, 500 * time.Millisecond},
	ClassScrub:     {1, 1, 0, 0},
	ClassStats:     {1, 1, 0, 0},
	ClassRebalance: {1, 1, 0, 0},
}

// Options configures a Scheduler.
type Options struct {
	// CompactConcurrency caps concurrent compactions (0 = 2).
	CompactConcurrency int

	// Disk-pressure watchdog: enabled when DiskFreeLow > 0. DiskPath is
	// probed every DiskCheckInterval; while free bytes are below
	// DiskFreeLow, every class but flush is refused with ErrDiskPressure.
	DiskFreeLow       int64
	DiskPath          string                                    // default "."
	DiskCheckInterval time.Duration                             // default 2s
	DiskProbe         func(path string) (free int64, err error) // override (tests); default statfs
}

// Counters is a point-in-time snapshot of one class's metrics.
type Counters struct {
	Ran           int64 `json:"ran"`
	Failed        int64 `json:"failed"`
	Retried       int64 `json:"retried"`
	Shed          int64 `json:"shed"`
	DurationNanos int64 `json:"duration_nanos"`
}

type class struct {
	sem                                       chan struct{}
	ran, failed, retried, shed, durationNanos atomic.Int64
}

type sharedCall struct {
	done chan struct{}
	err  error
}

// Scheduler runs maintenance under per-class caps. Construct with New
// and release with Close.
type Scheduler struct {
	opts    Options
	classes map[Class]*class // fixed by New

	mu           sync.Mutex // guards shared and afterCompact, and wg.Add against Close
	shared       map[string]*sharedCall
	afterCompact func(context.Context) error

	ctx    context.Context // canceled by Close
	cancel context.CancelFunc
	wg     sync.WaitGroup // watchdog and shared runs

	pressure atomic.Bool
	diskFree atomic.Int64
}

// New builds a scheduler and starts its disk-pressure watchdog when
// configured.
func New(opts Options) *Scheduler {
	s := &Scheduler{
		opts:    opts,
		classes: make(map[Class]*class),
		shared:  make(map[string]*sharedCall),
	}
	for c, sp := range specs {
		if c == ClassCompact && opts.CompactConcurrency > 0 {
			sp.cap = opts.CompactConcurrency
		}
		s.classes[c] = &class{sem: make(chan struct{}, sp.cap)}
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.diskFree.Store(-1)
	if opts.DiskFreeLow > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	return s
}

// Close cancels every running job, stops the scheduler's goroutines and
// waits for them. Safe to call twice.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	s.cancel()
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Do runs fn inline under class c's cap and retry budget, with a panic
// turned into an error. fn's context ends with ctx or Close.
func (s *Scheduler) Do(ctx context.Context, c Class, fn func(context.Context) error) error {
	if s == nil {
		_, err := attempt(ctx, c, fn)
		return err
	}
	cs := s.classes[c]
	switch {
	case s.ctx.Err() != nil:
		return ErrClosed
	case c != ClassFlush && s.pressure.Load():
		cs.shed.Add(1)
		return fmt.Errorf("%s: %w", c, ErrDiskPressure)
	}
	select {
	case cs.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.ctx.Done():
		return ErrClosed
	}
	defer func() { <-cs.sem }()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(s.ctx, cancel)()

	start := time.Now()
	retried, err := attempt(ctx, c, fn)
	cs.ran.Add(1)
	cs.retried.Add(retried)
	cs.durationNanos.Add(int64(time.Since(start)))
	switch {
	case err == nil && c == ClassCompact:
		s.mu.Lock()
		if s.afterCompact != nil {
			s.share(ClassStats, "after-compact", s.afterCompact)
		}
		s.mu.Unlock()
	case err != nil && (ctx.Err() == nil || !errors.Is(err, context.Canceled)):
		// A run canceled by its caller or by Close is not a failure.
		cs.failed.Add(1)
	}
	return err
}

// attempt runs fn up to class c's attempt budget.
func attempt(ctx context.Context, c Class, fn func(context.Context) error) (retried int64, err error) {
	r := specs[c]
	for i := 0; ; i++ {
		if err = call(ctx, fn); err == nil || i >= r.attempts-1 || ctx.Err() != nil {
			return retried, err
		}
		retried++
		d := min(r.base<<i, r.ceil)
		select {
		case <-time.After(d/2 + rand.N(d/2+1)):
		case <-ctx.Done():
			return retried, err
		}
	}
}

func call(ctx context.Context, fn func(context.Context) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("jobs: job panicked: %v\n%s", p, debug.Stack())
		}
	}()
	return fn(ctx)
}

// DoShared collapses concurrent callers with the same key onto one Do of
// fn; every caller gets that run's result. The run itself is bound to
// the scheduler, not to any caller, so an early caller giving up does
// not cancel it for the rest.
func (s *Scheduler) DoShared(ctx context.Context, c Class, key string, fn func(context.Context) error) error {
	s.mu.Lock()
	sc := s.share(c, key, fn)
	s.mu.Unlock()
	if sc == nil {
		return ErrClosed
	}
	select {
	case <-sc.done:
		return sc.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// share returns the in-flight run under key, or starts fn as one; nil
// once closed. The caller holds s.mu.
func (s *Scheduler) share(c Class, key string, fn func(context.Context) error) *sharedCall {
	sc := s.shared[key]
	if sc == nil && s.ctx.Err() == nil {
		sc = &sharedCall{done: make(chan struct{})}
		s.shared[key] = sc
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sc.err = s.Do(s.ctx, c, fn)
			s.mu.Lock()
			delete(s.shared, key)
			s.mu.Unlock()
			close(sc.done)
		}()
	}
	return sc
}

// AfterCompact installs fn to run under Do(ClassStats) after each
// successful compaction; a compaction that succeeds while fn runs joins
// that run.
func (s *Scheduler) AfterCompact(fn func(context.Context) error) {
	s.mu.Lock()
	s.afterCompact = fn
	s.mu.Unlock()
}

// Pressured reports whether the disk-pressure watchdog is tripped.
func (s *Scheduler) Pressured() bool { return s != nil && s.pressure.Load() }

// DiskFree returns the last probed free-byte count (-1 = never probed).
func (s *Scheduler) DiskFree() int64 { return s.diskFree.Load() }

// Metrics snapshots per-class counters keyed by class name.
func (s *Scheduler) Metrics() map[string]Counters {
	out := make(map[string]Counters, len(s.classes))
	for c, cs := range s.classes {
		out[string(c)] = Counters{
			Ran:           cs.ran.Load(),
			Failed:        cs.failed.Load(),
			Retried:       cs.retried.Load(),
			Shed:          cs.shed.Load(),
			DurationNanos: cs.durationNanos.Load(),
		}
	}
	return out
}

func (s *Scheduler) watchdog() {
	defer s.wg.Done()
	probe, path, interval := s.opts.DiskProbe, s.opts.DiskPath, s.opts.DiskCheckInterval
	if probe == nil {
		probe = diskFree
	}
	if path == "" {
		path = "."
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		// A failed probe is not pressure; the last state stands.
		if free, err := probe(path); err == nil {
			s.diskFree.Store(free)
			under := free < s.opts.DiskFreeLow
			if s.pressure.Swap(under) != under {
				log.Printf("jobs: disk pressure %v: %d bytes free at %s (threshold %d)", under, free, path, s.opts.DiskFreeLow)
			}
		}
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
	}
}
