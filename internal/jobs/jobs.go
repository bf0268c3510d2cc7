// Package jobs is the maintenance job orchestrator: every background
// chore in the engine (memtable flush, compaction, integrity scrub,
// statistics refresh, region rebalance)
// runs through one dependency-aware scheduler instead of an ad-hoc
// goroutine loop per subsystem.
//
// The scheduler gives all maintenance a shared discipline:
//
//   - classes with per-class concurrency caps, so a compaction storm
//     cannot occupy every core and starve foreground traffic;
//   - a jittered-exponential retry policy per class, so one transient
//     fsync error does not poison a region forever;
//   - panic isolation: a panicking job fails like any other error and
//     never crashes the process;
//   - quarantine: N consecutive failures of a class sideline that class
//     with a typed error and a metrics counter until an operator resumes
//     it or a cooldown expires;
//   - dependency edges: trigger-after (statistics refresh runs after a
//     compaction completes);
//   - a disk-pressure watchdog: below a configurable free-space
//     threshold, low-priority classes are shed and compaction output
//     amplification pauses, while flush keeps running and the
//     write path sees a typed ErrDiskPressure instead of a latched
//     permanent failure.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Class buckets jobs that share a concurrency cap, retry policy,
// priority and quarantine state.
type Class string

// The built-in maintenance classes. Callers may invent further classes;
// unknown classes get conservative defaults (cap 1, priority 50).
const (
	ClassFlush     Class = "flush"
	ClassCompact   Class = "compact"
	ClassScrub     Class = "scrub"
	ClassStats     Class = "stats"
	ClassRebalance Class = "rebalance"
)

// Typed errors surfaced by the scheduler.
var (
	// ErrClosed reports a scheduler that has been shut down.
	ErrClosed = errors.New("jobs: scheduler closed")
	// ErrPaused reports a class paused by an operator.
	ErrPaused = errors.New("jobs: class paused")
	// ErrQuarantined matches (errors.Is) any *QuarantineError.
	ErrQuarantined = errors.New("jobs: class quarantined")
	// ErrDiskPressure reports a run shed because free disk space is
	// below the configured threshold. The kv write path re-exports it.
	ErrDiskPressure = errors.New("jobs: disk pressure: free space below threshold")
	// ErrUnknownJob reports a RunNow/Deregister of an unregistered name.
	ErrUnknownJob = errors.New("jobs: unknown job")
)

// QuarantineError is returned while a class is sidelined after
// repeated failures. errors.Is(err, ErrQuarantined) matches it.
type QuarantineError struct {
	Class Class
	Until time.Time // cooldown expiry; zero means operator-resume only
	Cause string    // last error that tripped the quarantine
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("jobs: class %q quarantined until %s (last error: %s)",
		e.Class, e.Until.Format(time.RFC3339), e.Cause)
}

// Is makes errors.Is(err, ErrQuarantined) true for QuarantineError.
func (e *QuarantineError) Is(target error) bool { return target == ErrQuarantined }

// PanicError wraps a recovered panic from a job function.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("jobs: job panicked: %v", e.Value) }

// RetryPolicy bounds in-run retries. Delay before attempt i+1 is
// jittered exponential: min(Base<<i, Cap) drawn uniformly from
// [d/2, d], the same shape the kv routing layer uses.
type RetryPolicy struct {
	MaxAttempts int           // total attempts per run; <=0 means 1 (no retry)
	Base        time.Duration // first backoff step (default 5ms)
	Cap         time.Duration // backoff ceiling (default 500ms)
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) delay(attempt int) time.Duration {
	base, ceil := p.Base, p.Cap
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = 500 * time.Millisecond
	}
	d := base << uint(attempt)
	if d > ceil || d <= 0 {
		d = ceil
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// ClassConfig tunes one class. Zero fields fall back to the built-in
// defaults for known classes, or to {MaxConcurrent: 1, Priority: 50}.
type ClassConfig struct {
	MaxConcurrent int           // runs of this class at once (<=0 = default)
	Priority      int           // classes below PressureMinPriority shed under disk pressure
	Retry         RetryPolicy   // per-run retry/backoff
	Deadline      time.Duration // per-attempt deadline (0 = none)
}

func classDefault(c Class) ClassConfig {
	switch c {
	case ClassFlush:
		return ClassConfig{MaxConcurrent: 8, Priority: 90,
			Retry: RetryPolicy{MaxAttempts: 4, Base: 5 * time.Millisecond, Cap: 250 * time.Millisecond}}
	case ClassCompact:
		return ClassConfig{MaxConcurrent: 2, Priority: 50,
			Retry: RetryPolicy{MaxAttempts: 3, Base: 10 * time.Millisecond, Cap: 500 * time.Millisecond}}
	case ClassScrub:
		return ClassConfig{MaxConcurrent: 1, Priority: 40}
	case ClassStats:
		return ClassConfig{MaxConcurrent: 1, Priority: 30}
	case ClassRebalance:
		return ClassConfig{MaxConcurrent: 1, Priority: 30}
	default:
		return ClassConfig{MaxConcurrent: 1, Priority: 50}
	}
}

// PressureMinPriority is the default priority floor under disk
// pressure: classes below it are shed until pressure clears.
const PressureMinPriority = 60

// Spec registers a named job. Periodic jobs (Interval > 0) fire on a
// ticker; triggered jobs (TriggerAfter) fire, coalesced, after any run
// of the named classes succeeds; either kind can be fired manually with
// RunNow. Runs of one job never overlap.
type Spec struct {
	Name         string                          // unique per scheduler
	Class        Class                           // accounting/quarantine bucket
	Interval     time.Duration                   // periodic cadence (0 = manual/triggered only)
	TriggerAfter []Class                         // run after a job of these classes succeeds
	Retry        *RetryPolicy                    // override class retry policy
	Deadline     time.Duration                   // override class per-attempt deadline
	Fn           func(ctx context.Context) error // the work; ctx cancels on close
}

// Options configures a Scheduler.
type Options struct {
	Classes            map[Class]ClassConfig // per-class overrides
	QuarantineAfter    int                   // consecutive class failures before quarantine (0 = 5, <0 = off)
	QuarantineCooldown time.Duration         // auto re-admit delay (0 = 30s)

	// Disk-pressure watchdog: enabled when DiskFreeLow > 0. DiskPath is
	// probed every DiskCheckInterval; when free bytes drop below
	// DiskFreeLow, classes under PressureMinPriority are shed with
	// ErrDiskPressure until space recovers.
	DiskFreeLow       int64
	DiskPath          string                                    // default "."
	DiskCheckInterval time.Duration                             // default 2s
	DiskProbe         func(path string) (free int64, err error) // override (tests); default statfs

	Logf func(format string, args ...any) // optional transition log
}

func (o Options) quarantineAfter() int {
	if o.QuarantineAfter == 0 {
		return 5
	}
	return o.QuarantineAfter
}

func (o Options) cooldown() time.Duration {
	if o.QuarantineCooldown <= 0 {
		return 30 * time.Second
	}
	return o.QuarantineCooldown
}

// counters is the per-class metrics block; all fields atomic.
type counters struct {
	ran, failed, retried, panics int64
	shed, quarantined            int64
	durationNanos                int64
}

// Counters is a point-in-time snapshot of one class's metrics.
type Counters struct {
	Ran           int64 `json:"ran"`
	Failed        int64 `json:"failed"`
	Retried       int64 `json:"retried"`
	Panics        int64 `json:"panics"`
	Shed          int64 `json:"shed"`
	Quarantined   int64 `json:"quarantined"`
	DurationNanos int64 `json:"duration_nanos"`
}

type classState struct {
	cfg         ClassConfig
	sem         chan struct{}
	paused      bool
	quarantined bool
	until       time.Time
	lastErr     string
	consecFails int
	met         counters
}

// run is one admitted execution; Close cancels every running one.
type run struct {
	cancel context.CancelFunc
}

type sharedCall struct {
	done chan struct{}
	err  error
}

// RunRecord is one completed run of a registered job.
type RunRecord struct {
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	Err      string        `json:"err,omitempty"`
	Attempts int           `json:"attempts"`
}

// JobStatus describes one registered job for the admin API.
type JobStatus struct {
	Name     string        `json:"name"`
	Class    Class         `json:"class"`
	Interval time.Duration `json:"interval"`
	Running  bool          `json:"running"`
	Runs     int64         `json:"runs"`
	Fails    int64         `json:"fails"`
	LastErr  string        `json:"last_err,omitempty"`
	LastRun  time.Time     `json:"last_run"`
	History  []RunRecord   `json:"history,omitempty"`
}

// ClassStatus describes one class for the admin API.
type ClassStatus struct {
	Class           Class     `json:"class"`
	Priority        int       `json:"priority"`
	MaxConcurrent   int       `json:"max_concurrent"`
	Paused          bool      `json:"paused"`
	Quarantined     bool      `json:"quarantined"`
	QuarantineUntil time.Time `json:"quarantine_until,omitempty"`
	ConsecFails     int       `json:"consec_fails"`
	LastErr         string    `json:"last_err,omitempty"`
	Counters        Counters  `json:"counters"`
}

// Status is the full scheduler snapshot for GET /api/v1/admin/jobs.
type Status struct {
	Healthy      bool          `json:"healthy"`
	DiskPressure bool          `json:"disk_pressure"`
	DiskFree     int64         `json:"disk_free_bytes"`
	Jobs         []JobStatus   `json:"jobs"`
	Classes      []ClassStatus `json:"classes"`
}

// Scheduler owns all background maintenance. Zero value is not usable;
// construct with New and release with Close.
type Scheduler struct {
	opts Options

	mu      sync.Mutex
	classes map[Class]*classState
	jobs    map[string]*job
	subs    map[Class][]*job // TriggerAfter subscriptions
	running map[*run]struct{}
	shared  map[string]*sharedCall
	closed  bool

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup // watchdog + DoShared goroutines

	pressure atomic.Bool
	diskFree atomic.Int64
}

// New builds a scheduler and starts its disk-pressure watchdog when
// configured. A scheduler with no registered jobs and no watchdog runs
// zero goroutines.
func New(opts Options) *Scheduler {
	s := &Scheduler{
		opts:    opts,
		classes: make(map[Class]*classState),
		jobs:    make(map[string]*job),
		subs:    make(map[Class][]*job),
		running: make(map[*run]struct{}),
		shared:  make(map[string]*sharedCall),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.diskFree.Store(-1)
	if opts.DiskFreeLow > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	return s
}

func (s *Scheduler) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// class returns (creating on first use) the state for c. Caller holds s.mu.
func (s *Scheduler) class(c Class) *classState {
	cs := s.classes[c]
	if cs == nil {
		cfg := classDefault(c)
		if ov, ok := s.opts.Classes[c]; ok {
			if ov.MaxConcurrent > 0 {
				cfg.MaxConcurrent = ov.MaxConcurrent
			}
			if ov.Priority != 0 {
				cfg.Priority = ov.Priority
			}
			if ov.Retry.MaxAttempts != 0 || ov.Retry.Base != 0 || ov.Retry.Cap != 0 {
				cfg.Retry = ov.Retry
			}
			if ov.Deadline > 0 {
				cfg.Deadline = ov.Deadline
			}
		}
		if cfg.MaxConcurrent <= 0 {
			cfg.MaxConcurrent = 1
		}
		cs = &classState{cfg: cfg, sem: make(chan struct{}, cfg.MaxConcurrent)}
		s.classes[c] = cs
	}
	return cs
}

// Close cancels every running job, stops all job loops and the
// watchdog, and waits for them. Safe to call twice.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var loops []*job
	for _, j := range s.jobs {
		loops = append(loops, j)
	}
	for r := range s.running {
		r.cancel()
	}
	s.mu.Unlock()
	s.cancel()
	for _, j := range loops {
		j.stopWait()
	}
	s.wg.Wait()
	return nil
}

// --- registered jobs -------------------------------------------------

type job struct {
	s    *Scheduler
	spec Spec

	kick chan struct{} // coalesced "run due" signal
	stop chan struct{}
	done chan struct{}

	mu       sync.Mutex
	inflight bool
	waiters  []chan error
	runs     int64
	fails    int64
	lastErr  string
	lastRun  time.Time
	history  []RunRecord
}

// historyDepth is the number of run records kept per registered job.
const historyDepth = 8

// Register adds a named job and starts its loop goroutine.
func (s *Scheduler) Register(spec Spec) error {
	if spec.Name == "" || spec.Fn == nil {
		return errors.New("jobs: Register needs Name and Fn")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.jobs[spec.Name]; dup {
		return fmt.Errorf("jobs: duplicate job %q", spec.Name)
	}
	j := &job{
		s:    s,
		spec: spec,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.jobs[spec.Name] = j
	for _, c := range spec.TriggerAfter {
		s.subs[c] = append(s.subs[c], j)
	}
	go j.loop()
	return nil
}

// Deregister stops a job's loop and waits for any in-flight run.
func (s *Scheduler) Deregister(name string) error {
	s.mu.Lock()
	j, ok := s.jobs[name]
	if ok {
		delete(s.jobs, name)
		for _, c := range j.spec.TriggerAfter {
			subs := s.subs[c]
			for i, sj := range subs {
				if sj == j {
					s.subs[c] = append(subs[:i:i], subs[i+1:]...)
					break
				}
			}
		}
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, name)
	}
	j.stopWait()
	return nil
}

func (j *job) stopWait() {
	j.mu.Lock()
	select {
	case <-j.stop:
	default:
		close(j.stop)
	}
	j.mu.Unlock()
	<-j.done
}

func (j *job) loop() {
	defer close(j.done)
	var tickC <-chan time.Time
	if j.spec.Interval > 0 {
		t := time.NewTicker(j.spec.Interval)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-j.stop:
			j.failWaiters(ErrClosed)
			return
		case <-tickC:
		case <-j.kick:
		}
		select {
		case <-j.stop:
			j.failWaiters(ErrClosed)
			return
		default:
		}
		j.runOnce()
	}
}

func (j *job) failWaiters(err error) {
	j.mu.Lock()
	ws := j.waiters
	j.waiters = nil
	j.mu.Unlock()
	for _, ch := range ws {
		ch <- err
	}
}

func (j *job) runOnce() {
	j.mu.Lock()
	j.inflight = true
	j.mu.Unlock()

	start := time.Now()
	attempts := 0
	err := j.s.exec(execReq{
		parent:   j.s.baseCtx,
		class:    j.spec.Class,
		retry:    j.spec.Retry,
		deadline: j.spec.Deadline,
		attempts: &attempts,
		fn:       j.spec.Fn,
	})
	dur := time.Since(start)

	j.mu.Lock()
	j.inflight = false
	j.runs++
	j.lastRun = start
	rec := RunRecord{Start: start, Duration: dur, Attempts: attempts}
	if err != nil {
		j.fails++
		j.lastErr = err.Error()
		rec.Err = err.Error()
	} else {
		j.lastErr = ""
	}
	j.history = append(j.history, rec)
	if len(j.history) > historyDepth {
		j.history = j.history[len(j.history)-historyDepth:]
	}
	ws := j.waiters
	j.waiters = nil
	j.mu.Unlock()
	for _, ch := range ws {
		ch <- err
	}
}

// RunNow fires the named job immediately (joining an in-flight run if
// one is active) and waits for the result or ctx.
func (s *Scheduler) RunNow(ctx context.Context, name string) error {
	s.mu.Lock()
	j, ok := s.jobs[name]
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, name)
	}
	ch := make(chan error, 1)
	j.mu.Lock()
	j.waiters = append(j.waiters, ch)
	if !j.inflight {
		select {
		case j.kick <- struct{}{}:
		default:
		}
	}
	j.mu.Unlock()
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		return ctx.Err()
	case <-j.done:
		// Job deregistered under us; drain a result delivered just
		// before the loop exited, else report closed.
		select {
		case err := <-ch:
			return err
		default:
			return ErrClosed
		}
	}
}

// --- ad-hoc execution ------------------------------------------------

// Do runs fn inline under the scheduler's discipline for class: subject
// to quarantine, pause, disk-pressure shedding, the class concurrency
// cap, panic isolation and the class retry policy.
func (s *Scheduler) Do(ctx context.Context, class Class, fn func(context.Context) error) error {
	return s.exec(execReq{parent: ctx, class: class, fn: fn})
}

// DoShared collapses concurrent callers with the same key onto a single
// execution of fn; every caller gets the shared result. The execution
// itself runs under the scheduler's base context so an early caller
// disconnecting does not cancel it for the rest.
func (s *Scheduler) DoShared(ctx context.Context, class Class, key string, fn func(context.Context) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if c, ok := s.shared[key]; ok {
		s.mu.Unlock()
		select {
		case <-c.done:
			return c.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	c := &sharedCall{done: make(chan struct{})}
	s.shared[key] = c
	s.wg.Add(1)
	s.mu.Unlock()

	go func() {
		defer s.wg.Done()
		c.err = s.exec(execReq{parent: s.baseCtx, class: class, fn: fn})
		s.mu.Lock()
		delete(s.shared, key)
		s.mu.Unlock()
		close(c.done)
	}()
	select {
	case <-c.done:
		return c.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

type execReq struct {
	parent   context.Context
	class    Class
	retry    *RetryPolicy
	deadline time.Duration
	attempts *int // optional out: attempts used
	fn       func(ctx context.Context) error
}

// exec is the one code path every run takes: admission (closed, paused,
// quarantined, pressure), the class semaphore, then the attempt loop
// with panic recovery and jittered backoff, and finally metrics +
// quarantine accounting.
func (s *Scheduler) exec(req execReq) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	cs := s.class(req.class)
	if cs.paused {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrPaused, req.class)
	}
	if cs.quarantined {
		if time.Now().Before(cs.until) {
			qerr := &QuarantineError{Class: req.class, Until: cs.until, Cause: cs.lastErr}
			s.mu.Unlock()
			return qerr
		}
		// Cooldown expired: re-admit half-open — one more failure
		// re-quarantines immediately.
		cs.quarantined = false
		cs.consecFails = s.opts.quarantineAfter() - 1
		s.logf("jobs: class %s re-admitted after cooldown", req.class)
	}
	if s.pressure.Load() && cs.cfg.Priority < PressureMinPriority {
		atomic.AddInt64(&cs.met.shed, 1)
		s.mu.Unlock()
		return fmt.Errorf("%s: %w", req.class, ErrDiskPressure)
	}
	sem := cs.sem
	retry := cs.cfg.Retry
	if req.retry != nil {
		retry = *req.retry
	}
	deadline := cs.cfg.Deadline
	if req.deadline > 0 {
		deadline = req.deadline
	}
	s.mu.Unlock()

	parent := req.parent
	if parent == nil {
		parent = s.baseCtx
	}
	select {
	case sem <- struct{}{}:
	case <-parent.Done():
		return parent.Err()
	case <-s.baseCtx.Done():
		return ErrClosed
	}
	defer func() { <-sem }()

	runCtx, cancelRun := context.WithCancel(parent)
	defer cancelRun()
	r := &run{cancel: cancelRun}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.running[r] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.running, r)
		s.mu.Unlock()
	}()

	start := time.Now()
	var err error
	attempts := retry.attempts()
	i := 0
	for ; i < attempts; i++ {
		err = s.attempt(runCtx, deadline, req.fn)
		if err == nil || runCtx.Err() != nil {
			break
		}
		var pe *PanicError
		if errors.As(err, &pe) {
			atomic.AddInt64(&cs.met.panics, 1)
		}
		if i == attempts-1 {
			break
		}
		atomic.AddInt64(&cs.met.retried, 1)
		select {
		case <-time.After(retry.delay(i)):
		case <-runCtx.Done():
		}
		if runCtx.Err() != nil {
			break
		}
	}
	if req.attempts != nil {
		*req.attempts = i + 1
	}
	atomic.AddInt64(&cs.met.ran, 1)
	atomic.AddInt64(&cs.met.durationNanos, int64(time.Since(start)))

	// A canceled run (shutdown, caller gone) is neutral: it neither
	// clears nor advances the quarantine counter.
	if err != nil && runCtx.Err() != nil && errors.Is(err, context.Canceled) {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		cs.consecFails = 0
		for _, tj := range s.subs[req.class] {
			select {
			case tj.kick <- struct{}{}:
			default:
			}
		}
		return nil
	}
	atomic.AddInt64(&cs.met.failed, 1)
	cs.lastErr = err.Error()
	cs.consecFails++
	if n := s.opts.quarantineAfter(); n > 0 && cs.consecFails >= n && !cs.quarantined {
		cs.quarantined = true
		cs.until = time.Now().Add(s.opts.cooldown())
		atomic.AddInt64(&cs.met.quarantined, 1)
		s.logf("jobs: class %s quarantined until %s after %d consecutive failures (last: %v)",
			req.class, cs.until.Format(time.RFC3339), cs.consecFails, err)
	}
	return err
}

// attempt runs fn once with panic isolation and an optional deadline.
func (s *Scheduler) attempt(ctx context.Context, deadline time.Duration, fn func(context.Context) error) (err error) {
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}

// --- operator controls ----------------------------------------------

// Pause stops admitting runs of class until Resume.
func (s *Scheduler) Pause(class Class) {
	s.mu.Lock()
	s.class(class).paused = true
	s.mu.Unlock()
}

// Resume lifts an operator pause and any quarantine on class.
func (s *Scheduler) Resume(class Class) {
	s.mu.Lock()
	cs := s.class(class)
	cs.paused = false
	cs.quarantined = false
	cs.consecFails = 0
	s.mu.Unlock()
}

// Healthy reports an open scheduler with no quarantined class.
func (s *Scheduler) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	for _, cs := range s.classes {
		if cs.quarantined && time.Now().Before(cs.until) {
			return false
		}
	}
	return true
}

// Pressured reports whether the disk-pressure watchdog is tripped.
func (s *Scheduler) Pressured() bool { return s.pressure.Load() }

// DiskFree returns the last probed free-byte count (-1 = never probed).
func (s *Scheduler) DiskFree() int64 { return s.diskFree.Load() }

// Metrics snapshots per-class counters keyed by class name.
func (s *Scheduler) Metrics() map[string]Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Counters, len(s.classes))
	for c, cs := range s.classes {
		out[string(c)] = Counters{
			Ran:           atomic.LoadInt64(&cs.met.ran),
			Failed:        atomic.LoadInt64(&cs.met.failed),
			Retried:       atomic.LoadInt64(&cs.met.retried),
			Panics:        atomic.LoadInt64(&cs.met.panics),
			Shed:          atomic.LoadInt64(&cs.met.shed),
			Quarantined:   atomic.LoadInt64(&cs.met.quarantined),
			DurationNanos: atomic.LoadInt64(&cs.met.durationNanos),
		}
	}
	return out
}

// Snapshot captures the full scheduler state for the admin API.
func (s *Scheduler) Snapshot() Status {
	met := s.Metrics()
	s.mu.Lock()
	st := Status{
		Healthy:      !s.closed,
		DiskPressure: s.pressure.Load(),
		DiskFree:     s.diskFree.Load(),
	}
	now := time.Now()
	for c, cs := range s.classes {
		if cs.quarantined && now.Before(cs.until) {
			st.Healthy = false
		}
		st.Classes = append(st.Classes, ClassStatus{
			Class:           c,
			Priority:        cs.cfg.Priority,
			MaxConcurrent:   cs.cfg.MaxConcurrent,
			Paused:          cs.paused,
			Quarantined:     cs.quarantined && now.Before(cs.until),
			QuarantineUntil: cs.until,
			ConsecFails:     cs.consecFails,
			LastErr:         cs.lastErr,
			Counters:        met[string(c)],
		})
	}
	jobsByName := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobsByName = append(jobsByName, j)
	}
	s.mu.Unlock()

	for _, j := range jobsByName {
		j.mu.Lock()
		js := JobStatus{
			Name:     j.spec.Name,
			Class:    j.spec.Class,
			Interval: j.spec.Interval,
			Running:  j.inflight,
			Runs:     j.runs,
			Fails:    j.fails,
			LastErr:  j.lastErr,
			LastRun:  j.lastRun,
			History:  append([]RunRecord(nil), j.history...),
		}
		j.mu.Unlock()
		st.Jobs = append(st.Jobs, js)
	}
	sort.Slice(st.Jobs, func(i, k int) bool { return st.Jobs[i].Name < st.Jobs[k].Name })
	sort.Slice(st.Classes, func(i, k int) bool { return st.Classes[i].Class < st.Classes[k].Class })
	return st
}

// --- disk-pressure watchdog ------------------------------------------

func (s *Scheduler) watchdog() {
	defer s.wg.Done()
	probe := s.opts.DiskProbe
	if probe == nil {
		probe = diskFree
	}
	path := s.opts.DiskPath
	if path == "" {
		path = "."
	}
	interval := s.opts.DiskCheckInterval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	s.checkDisk(probe, path)
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.checkDisk(probe, path)
		}
	}
}

func (s *Scheduler) checkDisk(probe func(string) (int64, error), path string) {
	free, err := probe(path)
	if err != nil {
		// Probe failure is not pressure; leave the last state standing.
		return
	}
	s.diskFree.Store(free)
	under := free < s.opts.DiskFreeLow
	if s.pressure.Swap(under) != under {
		if under {
			s.logf("jobs: disk pressure ON: %d free < %d threshold at %s", free, s.opts.DiskFreeLow, path)
		} else {
			s.logf("jobs: disk pressure OFF: %d free at %s", free, path)
		}
	}
}
