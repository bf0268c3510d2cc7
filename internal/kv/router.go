package kv

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"just/internal/jobs"
	"just/internal/rpc"
)

// RouterOptions configure a Router.
type RouterOptions struct {
	// Peers are the region-server rpc addresses the router fans out to.
	Peers []string
	// Transport carries the requests; nil builds a pooled TCP client.
	Transport Transport
	// Replicas is the number of replica copies per region (so RF =
	// Replicas+1), applied when the router bootstraps the first region.
	Replicas int
	// RebalanceInterval runs the background rebalance / cold-merge loop;
	// 0 disables it (moves and merges still happen when triggered
	// explicitly via Rebalance).
	RebalanceInterval time.Duration
	// MergeBytes merges two adjacent regions on the same primary when
	// both are below it; 0 disables cold merges.
	MergeBytes int64

	// BreakerFailures is the consecutive-transport-failure count that
	// opens a peer's circuit breaker (0 = 3). While open, requests to
	// the peer fail fast without a dial; after ProbeInterval one trial
	// request (or a background probe) is admitted to test recovery.
	BreakerFailures int
	// ProbeInterval runs the background OpPing prober over every peer
	// and paces open→half-open breaker trials; 0 disables the prober
	// (breakers still half-open on live traffic, at a 2s default pace).
	ProbeInterval time.Duration
	// HedgeAfter enables hedged reads: an idempotent Get/MultiGet
	// still unanswered after max(HedgeAfter, 2× the primary's EWMA
	// latency) fires a second copy at the most responsive live replica,
	// first answer wins. 0 disables hedging.
	HedgeAfter time.Duration
	// RetryBackoff / RetryBackoffMax shape the jittered exponential
	// backoff between stale-map/failover retries (0 = 5ms base, 500ms
	// cap). Sleeps are cut short by the caller's context deadline.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration

	// Jobs is the maintenance scheduler the rebalance pass runs
	// through (nil: uncapped).
	Jobs *jobs.Scheduler
}

// routerMaxRetries bounds stale-map / failover retries per operation.
const routerMaxRetries = 8

// errBreakerOpen is the cause inside the fail-fast TransportError
// returned for a peer whose circuit breaker is open.
var errBreakerOpen = errors.New("kv: peer circuit breaker open")

// routerIDBase is the region-ID space the router mints merge targets
// from — far above node split IDs (NodeID*splitIDSpace+counter) for any
// realistic node count.
const routerIDBase = uint64(1) << 32

// routedRegion is one entry of the router's cached region map.
type routedRegion struct {
	id       uint64
	epoch    uint64
	kr       KeyRange
	addr     string // primary's address
	replicas []string
	bytes    int64 // primary's on-disk size at last refresh
}

// Router is the networked deployment's Store: it keeps a cached region
// map (refreshed from the region servers' OpRegionMap reports), routes
// every operation to the primary serving the key, and retries through a
// refresh when a server answers CodeStaleRegion — the map is a cache,
// staleness is normal after splits, merges and moves. When a primary
// stops answering, the router fails the region over: it promotes the
// most caught-up replica at a bumped epoch and re-routes. A background
// loop (RebalanceInterval) evens primary placement across peers and
// merges adjacent cold regions.
type Router struct {
	opts   RouterOptions
	tr     Transport
	own    *rpc.Client // set when the router built its own transport
	met    Metrics
	health *healthTracker

	mu      sync.RWMutex
	regions []routedRegion // sorted by range start
	closed  bool

	failMu sync.Mutex // serializes failovers and moves
	idCtr  atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// OpenRouter connects to the peers, refreshing the region map and
// bootstrapping the first region (whole key space, epoch 1, primary on
// the first peer) if no peer hosts anything yet.
func OpenRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Peers) == 0 {
		return nil, errors.New("kv: router needs at least one peer")
	}
	r := &Router{
		opts:   opts,
		tr:     opts.Transport,
		health: newHealthTracker(opts.BreakerFailures, opts.ProbeInterval),
		stop:   make(chan struct{}),
	}
	if r.tr == nil {
		r.own = rpc.NewClient(rpc.ClientOptions{})
		r.tr = r.own
	}
	// Peers may still be coming up (process supervisors start everything
	// at once), so the initial map build retries with backoff instead of
	// failing on the first connection refused.
	ctx := context.Background()
	var err error
	for attempt := 0; ; attempt++ {
		if err = r.refresh(ctx); err == nil {
			break
		}
		if attempt >= routerMaxRetries {
			r.Close()
			return nil, err
		}
		if err := r.sleepBackoff(ctx, attempt); err != nil {
			r.Close()
			return nil, err
		}
	}
	if len(r.snapshot()) == 0 {
		if err := r.bootstrap(ctx); err != nil {
			r.Close()
			return nil, err
		}
	}
	if opts.ProbeInterval > 0 {
		r.every(opts.ProbeInterval, r.probePeers)
	}
	// The rebalance/cold-merge pass runs in the rebalance class, which
	// disk pressure sheds along with the other low-priority classes.
	if opts.RebalanceInterval > 0 {
		r.every(opts.RebalanceInterval, func() {
			_ = opts.Jobs.Do(context.Background(), jobs.ClassRebalance, func(ctx context.Context) error {
				r.Rebalance(ctx)
				return nil
			})
		})
	}
	return r, nil
}

// do routes one unary RPC through addr's circuit breaker and feeds the
// outcome back into the health tracker. An open breaker fails fast
// with a TransportError (no dial), which the retry/failover machinery
// classifies exactly like a dead peer — because that is what it is.
func (r *Router) do(ctx context.Context, addr string, op byte, payload []byte) ([]byte, error) {
	if !r.health.allow(addr) {
		return nil, &rpc.TransportError{Addr: addr, Err: errBreakerOpen}
	}
	start := time.Now()
	p, err := r.tr.Do(ctx, addr, op, payload)
	r.observe(addr, err, time.Since(start))
	return p, err
}

// doStream is do for streaming RPCs.
func (r *Router) doStream(ctx context.Context, addr string, op byte, payload []byte, onFrame func(op byte, payload []byte) (bool, error)) error {
	if !r.health.allow(addr) {
		return &rpc.TransportError{Addr: addr, Err: errBreakerOpen}
	}
	start := time.Now()
	err := r.tr.Stream(ctx, addr, op, payload, onFrame)
	r.observe(addr, err, time.Since(start))
	return err
}

// observe classifies one RPC outcome for the health tracker: transport
// failures count against the peer, anything the peer actually answered
// (success or RemoteError) counts as liveness, and caller-side
// cancellation says nothing about the peer at all.
func (r *Router) observe(addr string, err error, d time.Duration) {
	switch {
	case err == nil:
		r.health.record(addr, false, d)
	case rpc.IsTransport(err):
		r.health.record(addr, true, 0)
		r.health.noteErr(addr, err)
	default:
		var re *rpc.RemoteError
		if errors.As(err, &re) {
			r.health.record(addr, false, d)
		}
	}
}

// sleepBackoff waits out the jittered exponential delay for a retry
// attempt, cut short by the caller's deadline or router shutdown.
func (r *Router) sleepBackoff(ctx context.Context, attempt int) error {
	d := backoff(r.opts.RetryBackoff, r.opts.RetryBackoffMax, attempt)
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return context.DeadlineExceeded
		}
		if d > rem {
			d = rem
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-r.stop:
		return ErrClosed
	case <-t.C:
		return nil
	}
}

// every runs fn each interval on a goroutine Close stops and waits for.
func (r *Router) every(interval time.Duration, fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
}

// probePeers pings every peer, feeding the tracker so dead peers are
// discovered (and revived ones readmitted) without a live request
// having to trip over them. Probes bypass the breaker — they are how
// an open breaker learns the peer came back.
func (r *Router) probePeers() {
	for _, addr := range r.opts.Peers {
		pctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeInterval)
		start := time.Now()
		_, err := r.tr.Do(pctx, addr, rpc.OpPing, nil)
		cancel()
		r.observe(addr, err, time.Since(start))
	}
}

// PeerHealth reports every tracked peer's breaker state and smoothed
// latency, for the admin topology surface.
func (r *Router) PeerHealth() []PeerHealth { return r.health.snapshot() }

// bootstrap creates region 1 covering (-inf, +inf) at epoch 1: primary
// on the first peer, replicas on the next Replicas peers.
func (r *Router) bootstrap(ctx context.Context) error {
	primary := r.opts.Peers[0]
	var replicas []string
	for i := 1; i < len(r.opts.Peers) && len(replicas) < r.opts.Replicas; i++ {
		replicas = append(replicas, r.opts.Peers[i])
	}
	req := rpc.CreateRegionReq{ID: 1, Epoch: 1, Role: rpc.RolePrimary, Replicas: replicas}
	if _, err := r.do(ctx, primary, rpc.OpCreateRegion, rpc.MarshalAdmin(&req)); err != nil {
		return fmt.Errorf("kv: bootstrap region on %s: %w", primary, err)
	}
	for _, addr := range replicas {
		rep := rpc.CreateRegionReq{ID: 1, Epoch: 1, Role: rpc.RoleReplica}
		if _, err := r.do(ctx, addr, rpc.OpCreateRegion, rpc.MarshalAdmin(&rep)); err != nil {
			return fmt.Errorf("kv: bootstrap replica on %s: %w", addr, err)
		}
	}
	return r.refresh(ctx)
}

// refresh rebuilds the cached region map from every reachable peer's
// report, keeping the highest-epoch primary entry per region. A region
// reported only in replica role has an unreachable primary: it is kept
// (never dropped — dropping would strand its key range with no path to
// failover, since route() fails before any RPC is made) and failed over
// to a live replica immediately.
func (r *Router) refresh(ctx context.Context) error {
	atomic.AddInt64(&r.met.StaleMapRefreshes, 1)
	best := map[uint64]routedRegion{}
	orphans := map[uint64]routedRegion{}
	reached := 0
	for _, addr := range r.opts.Peers {
		p, err := r.do(ctx, addr, rpc.OpRegionMap, nil)
		if err != nil {
			continue
		}
		reached++
		var resp rpc.RegionMapResp
		if err := rpc.UnmarshalAdmin(p, &resp); err != nil {
			continue
		}
		for _, info := range resp.Regions {
			if info.Role != rpc.RolePrimary {
				o := orphans[info.ID]
				if info.Epoch >= o.epoch {
					o.id, o.epoch = info.ID, info.Epoch
					o.kr = KeyRange{Start: info.Start, End: info.End}
				}
				o.replicas = append(o.replicas, addr)
				orphans[info.ID] = o
				continue
			}
			if cur, ok := best[info.ID]; ok && cur.epoch >= info.Epoch {
				continue
			}
			best[info.ID] = routedRegion{
				id: info.ID, epoch: info.Epoch,
				kr:   KeyRange{Start: info.Start, End: info.End},
				addr: addr, replicas: append([]string(nil), info.Replicas...),
				bytes: info.Bytes,
			}
		}
	}
	if reached == 0 {
		return ErrUnavailable
	}
	var down []routedRegion
	for id, o := range orphans {
		if _, ok := best[id]; ok {
			continue
		}
		// Prefer the cached entry (it knows the dead primary's address,
		// so in-flight requests still trip the transport-error failover
		// path); fall back to the replica's own report when the router
		// started after the primary went down.
		reg := o
		for _, cur := range r.snapshot() {
			if cur.id == id {
				reg = cur
				break
			}
		}
		for _, addr := range o.replicas {
			if !containsAddr(reg.replicas, addr) {
				reg.replicas = append(reg.replicas, addr)
			}
		}
		best[id] = reg
		down = append(down, reg)
	}
	regions := make([]routedRegion, 0, len(best))
	for _, reg := range best {
		regions = append(regions, reg)
	}
	sort.Slice(regions, func(i, j int) bool {
		a, b := regions[i], regions[j]
		if a.kr.Start == nil {
			return b.kr.Start != nil
		}
		if b.kr.Start == nil {
			return false
		}
		return bytes.Compare(a.kr.Start, b.kr.Start) < 0
	})
	r.mu.Lock()
	r.regions = regions
	r.mu.Unlock()
	// Promote replacements for downed primaries now rather than waiting
	// for a request to trip over them; failover patches the map in place.
	for _, reg := range down {
		r.failover(ctx, reg)
	}
	return nil
}

func containsAddr(addrs []string, addr string) bool {
	for _, a := range addrs {
		if a == addr {
			return true
		}
	}
	return false
}

func (r *Router) snapshot() []routedRegion {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.regions
}

// RegionTopology is one entry of the router's cached region map, as
// exposed by admin surfaces. Keys marshal to base64 in JSON (they are
// arbitrary bytes).
type RegionTopology struct {
	ID       uint64   `json:"id"`
	Epoch    uint64   `json:"epoch"`
	Start    []byte   `json:"start,omitempty"`
	End      []byte   `json:"end,omitempty"`
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas,omitempty"`
	Bytes    int64    `json:"bytes"`
}

// Topology reports the cached region map: every region's range, epoch,
// primary placement and replica set as of the last refresh.
func (r *Router) Topology() []RegionTopology {
	regs := r.snapshot()
	out := make([]RegionTopology, len(regs))
	for i, reg := range regs {
		out[i] = RegionTopology{
			ID: reg.id, Epoch: reg.epoch,
			Start: reg.kr.Start, End: reg.kr.End,
			Primary:  reg.addr,
			Replicas: append([]string(nil), reg.replicas...),
			Bytes:    reg.bytes,
		}
	}
	return out
}

// route finds the region serving key in the cached map.
func (r *Router) route(ctx context.Context, key []byte) (routedRegion, error) {
	for attempt := 0; ; attempt++ {
		regs := r.snapshot()
		i := sort.Search(len(regs), func(i int) bool {
			return regs[i].kr.End == nil || bytes.Compare(key, regs[i].kr.End) < 0
		})
		if i < len(regs) && regs[i].kr.Contains(key) {
			return regs[i], nil
		}
		// A hole in the map (mid split/merge snapshot): refresh and retry.
		if attempt >= routerMaxRetries {
			return routedRegion{}, ErrStaleRegion
		}
		if err := r.refresh(ctx); err != nil {
			return routedRegion{}, err
		}
	}
}

// translateErr maps wire errors onto the store's error vocabulary.
func translateErr(err error) error {
	var re *rpc.RemoteError
	if errors.As(err, &re) {
		switch re.Code {
		case rpc.CodeNotFound:
			return ErrNotFound
		case rpc.CodeStaleRegion:
			return ErrStaleRegion
		case rpc.CodeUnavailable:
			return ErrUnavailable
		case rpc.CodeClosed:
			return ErrClosed
		case rpc.CodeDeadline:
			// The server abandoned the work because our propagated budget
			// expired; surface the same error a local deadline would, so
			// exec's lifecycle mapping lifts it to ErrDeadlineExceeded.
			return context.DeadlineExceeded
		}
	}
	return err
}

func isStale(err error) bool {
	var re *rpc.RemoteError
	return errors.As(err, &re) && re.Code == rpc.CodeStaleRegion
}

// retryable reports whether the operation should re-route and retry:
// the map was stale, or the peer was unreachable (failover may elect a
// new primary).
func (r *Router) retryable(ctx context.Context, reg routedRegion, err error) bool {
	switch {
	case isStale(err):
	case rpc.IsTransport(err):
		r.failover(ctx, reg)
	default:
		return false
	}
	atomic.AddInt64(&r.met.RPCRetries, 1)
	r.refresh(ctx)
	return true
}

// failover promotes reg's most caught-up reachable replica to primary
// at a bumped epoch. Best-effort: with no reachable replica the region
// stays down and callers keep failing with ErrUnavailable.
func (r *Router) failover(ctx context.Context, reg routedRegion) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	// Someone may have already failed this region over (or a refresh
	// found a newer primary) while we waited on the lock.
	for _, cur := range r.snapshot() {
		if cur.id == reg.id && (cur.epoch > reg.epoch || cur.addr != reg.addr) {
			return
		}
	}
	statusReq := rpc.MarshalAdmin(&rpc.StatusReq{Region: reg.id})
	bestAddr, bestSeq := "", uint64(0)
	var live []string
	for _, addr := range reg.replicas {
		p, err := r.do(ctx, addr, rpc.OpStatus, statusReq)
		if err != nil {
			continue
		}
		var st rpc.StatusResp
		if err := rpc.UnmarshalAdmin(p, &st); err != nil {
			continue
		}
		live = append(live, addr)
		if bestAddr == "" || st.LastSeq > bestSeq {
			bestAddr, bestSeq = addr, st.LastSeq
		}
	}
	if bestAddr == "" {
		return
	}
	var rest []string
	for _, addr := range live {
		if addr != bestAddr {
			rest = append(rest, addr)
		}
	}
	newEpoch := reg.epoch + 1
	promote := rpc.PromoteReq{Region: reg.id, NewEpoch: newEpoch, Replicas: rest}
	if _, err := r.do(ctx, bestAddr, rpc.OpPromote, rpc.MarshalAdmin(&promote)); err != nil {
		return
	}
	atomic.AddInt64(&r.met.Failovers, 1)
	// Patch the cached entry so the very next attempt routes correctly
	// even before the refresh lands.
	r.mu.Lock()
	for i := range r.regions {
		if r.regions[i].id == reg.id && r.regions[i].epoch == reg.epoch {
			r.regions[i].epoch = newEpoch
			r.regions[i].addr = bestAddr
			r.regions[i].replicas = rest
		}
	}
	r.mu.Unlock()
}

// ApplyCtx group-commits a WriteBatch, split across the regions its
// keys land in; batch order is preserved within each region. The
// remaining budget of ctx travels to the region servers in the request
// frames' deadline envelope.
func (r *Router) ApplyCtx(ctx context.Context, b *WriteBatch) error {
	if len(b.muts) == 0 {
		return nil
	}
	return r.applyMuts(ctx, b.muts)
}

type mutGroup struct {
	reg  routedRegion
	muts []mutation
}

func (r *Router) applyMuts(ctx context.Context, muts []mutation) error {
	pending := muts
	for attempt := 0; attempt < routerMaxRetries; attempt++ {
		if attempt > 0 {
			if err := r.sleepBackoff(ctx, attempt-1); err != nil {
				return err
			}
		}
		// Group by destination region, preserving mutation order within
		// each group (replicas replay ship order; see servedRegion).
		// Groups are applied in the order of their first mutation, and
		// none after a group that must be retried, so a caller can make
		// one group's mutations land before another's (Table's meta rows
		// before its data).
		var groups []mutGroup
		byID := map[uint64]int{}
		var routeErr error
		for _, m := range pending {
			reg, err := r.route(ctx, m.key)
			if err != nil {
				routeErr = err
				break
			}
			i, ok := byID[reg.id]
			if !ok {
				i = len(groups)
				byID[reg.id] = i
				groups = append(groups, mutGroup{reg: reg})
			}
			groups[i].muts = append(groups[i].muts, m)
		}
		if routeErr != nil {
			return routeErr
		}
		var failed []mutation
		for i, g := range groups {
			req := rpc.PutBatchReq{
				Region: g.reg.id, Epoch: g.reg.epoch,
				Payload: encodeBatchPayload(nil, g.muts),
			}
			_, err := r.do(ctx, g.reg.addr, rpc.OpPutBatch, req.Append(nil))
			if err == nil {
				continue
			}
			if !r.retryable(ctx, g.reg, err) {
				return translateErr(err)
			}
			for _, g := range groups[i:] {
				failed = append(failed, g.muts...)
			}
			break
		}
		if len(failed) == 0 {
			return nil
		}
		pending = failed
	}
	return ErrUnavailable
}

// GetCtx fetches the value for key or ErrNotFound.
func (r *Router) GetCtx(ctx context.Context, key []byte) ([]byte, error) {
	for attempt := 0; attempt < routerMaxRetries; attempt++ {
		if attempt > 0 {
			if err := r.sleepBackoff(ctx, attempt-1); err != nil {
				return nil, err
			}
		}
		reg, err := r.route(ctx, key)
		if err != nil {
			return nil, err
		}
		req := rpc.GetReq{Region: reg.id, Epoch: reg.epoch, Key: key}
		v, err := r.readHedged(ctx, reg, rpc.OpGet, req.Append(nil))
		if err == nil {
			return v, nil
		}
		if r.retryable(ctx, reg, err) {
			continue
		}
		return nil, translateErr(err)
	}
	return nil, ErrUnavailable
}

// hedgeTarget picks the replica a slow read should hedge to: the live
// one (breaker not open) with the lowest smoothed latency. Empty when
// hedging is off or no replica qualifies.
func (r *Router) hedgeTarget(reg routedRegion) string {
	if r.opts.HedgeAfter <= 0 {
		return ""
	}
	target, best := "", time.Duration(0)
	for _, addr := range reg.replicas {
		if addr == reg.addr || !r.health.available(addr) {
			continue
		}
		e := r.health.ewma(addr)
		if target == "" || e < best {
			target, best = addr, e
		}
	}
	return target
}

// readHedged issues an idempotent read to reg's primary and, if no
// answer lands within max(HedgeAfter, 2× the primary's EWMA latency),
// fires the same read at the most responsive replica — first
// definitive answer (success or RemoteError) wins, the loser is
// canceled. Only reads hedge: a hedged write would execute twice when
// both copies land, and replicas hold every acknowledged write (the
// primary ships synchronously), so a replica read is as fresh as the
// primary's.
func (r *Router) readHedged(ctx context.Context, reg routedRegion, op byte, payload []byte) ([]byte, error) {
	target := r.hedgeTarget(reg)
	if target == "" {
		return r.do(ctx, reg.addr, op, payload)
	}
	delay := r.opts.HedgeAfter
	if e := 2 * r.health.ewma(reg.addr); e > delay {
		delay = e
	}
	type result struct {
		p     []byte
		err   error
		hedge bool
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan result, 2) // buffered: the loser must not block
	go func() {
		p, err := r.do(hctx, reg.addr, op, payload)
		ch <- result{p, err, false}
	}()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	hedged := false
	for got := 0; ; {
		var res result
		if !hedged {
			select {
			case res = <-ch:
				// The primary answered (or failed) before the hedge window:
				// return it as-is so failures classify normally.
				return res.p, res.err
			case <-timer.C:
				hedged = true
				atomic.AddInt64(&r.met.RPCHedges, 1)
				go func() {
					p, err := r.do(hctx, target, op, payload)
					ch <- result{p, err, true}
				}()
				continue
			}
		}
		res = <-ch
		got++
		var re *rpc.RemoteError
		if res.err == nil || errors.As(res.err, &re) {
			// Definitive: the peer answered. Cancel the loser and return.
			if res.hedge {
				atomic.AddInt64(&r.met.RPCHedgeWins, 1)
			}
			cancel()
			return res.p, res.err
		}
		if got == 2 {
			// Both attempts failed at the transport (or the caller gave
			// up); report the failure for the normal retry/failover path.
			return res.p, res.err
		}
	}
}

// MultiGetCtx fetches many keys; the result is parallel to keys with
// nil entries for misses.
func (r *Router) MultiGetCtx(ctx context.Context, keys [][]byte) ([][]byte, error) {
	out := make([][]byte, len(keys))
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	for attempt := 0; attempt < routerMaxRetries && len(pending) > 0; attempt++ {
		if attempt > 0 {
			if err := r.sleepBackoff(ctx, attempt-1); err != nil {
				return nil, err
			}
		}
		// Group the outstanding key indexes by destination region.
		var groups []mutGroup
		idxGroups := [][]int{}
		byID := map[uint64]int{}
		for _, ki := range pending {
			reg, err := r.route(ctx, keys[ki])
			if err != nil {
				return nil, err
			}
			gi, ok := byID[reg.id]
			if !ok {
				gi = len(groups)
				byID[reg.id] = gi
				groups = append(groups, mutGroup{reg: reg})
				idxGroups = append(idxGroups, nil)
			}
			idxGroups[gi] = append(idxGroups[gi], ki)
		}
		var failed []int
		for gi, g := range groups {
			req := rpc.MultiGetReq{Region: g.reg.id, Epoch: g.reg.epoch}
			for _, ki := range idxGroups[gi] {
				req.Keys = append(req.Keys, keys[ki])
			}
			p, err := r.readHedged(ctx, g.reg, rpc.OpMultiGet, req.Append(nil))
			if err != nil {
				if r.retryable(ctx, g.reg, err) {
					failed = append(failed, idxGroups[gi]...)
					continue
				}
				return nil, translateErr(err)
			}
			var vals rpc.ValuesResp
			if err := vals.Decode(p); err != nil {
				return nil, err
			}
			if len(vals.Vals) != len(idxGroups[gi]) {
				return nil, fmt.Errorf("kv: multiget returned %d values for %d keys", len(vals.Vals), len(idxGroups[gi]))
			}
			for j, ki := range idxGroups[gi] {
				out[ki] = vals.Vals[j]
			}
		}
		pending = failed
	}
	if len(pending) > 0 {
		return nil, ErrUnavailable
	}
	return out, nil
}

// scanTasks implements Store: one task per run, the consecutive
// ascending ranges that fall in one cached region. A range joins its
// region's latest task when it starts at or after that task's last
// range's end (and carries the same zone); otherwise it starts a new
// task. Staleness is fine — runScanTask re-routes as it goes, so a task
// only needs to name sub-ranges, not a live region.
func (r *Router) scanTasks(ranges []KeyRange) []scanTask {
	regs := r.snapshot()
	var tasks []scanTask
	latest := make([]int, len(regs)) // per cached region: its latest task + 1
	for _, kr := range ranges {
		matched := false
		for i, reg := range regs {
			sub, ok := kr.Intersect(reg.kr)
			if !ok {
				continue
			}
			matched = true
			if j := latest[i] - 1; j >= 0 && extendsRun(tasks[j].run, sub) {
				tasks[j].run = append(tasks[j].run, sub)
				continue
			}
			tasks = append(tasks, scanTask{run: []KeyRange{sub}})
			latest[i] = len(tasks)
		}
		if !matched {
			// Empty or hole-covered map: one task for the whole range,
			// resolved at run time.
			tasks = append(tasks, scanTask{run: []KeyRange{kr}})
		}
	}
	return tasks
}

// extendsRun reports whether kr may ride at the end of run: it starts
// at or after the run's last end and shares the run's zone interval.
func extendsRun(run []KeyRange, kr KeyRange) bool {
	last := run[len(run)-1]
	return last.End != nil && bytes.Compare(kr.Start, last.End) >= 0 &&
		kr.Zoned == last.Zoned && kr.ZMin == last.ZMin && kr.ZMax == last.ZMax
}

// skipTo drops the part of run below key: ranges ending at or before it
// go, and a range starting before it is cut to start at it. A nil key
// is the end of the key space, so nothing remains.
func skipTo(run []KeyRange, key []byte) []KeyRange {
	if key == nil {
		return nil
	}
	for len(run) > 0 && run[0].End != nil && bytes.Compare(run[0].End, key) <= 0 {
		run = run[1:]
	}
	if len(run) > 0 && bytes.Compare(run[0].Start, key) < 0 {
		run[0].Start = key
	}
	return run
}

// runScanTask streams one task's run in key order: one OpScan carries
// the leading ranges of the run that lie in the routed region, and a
// clean end of stream moves on to the rest. Splits, merges and moves
// can land mid-stream: on a stale or torn stream the task resumes from
// just after the last delivered key against a refreshed map, so the
// caller sees every key exactly once, in order, regardless of topology
// changes underneath.
func (r *Router) runScanTask(ctx context.Context, t scanTask, emit func(key, value []byte) bool) error {
	rem := t.run
	var resume []byte // last delivered key; nil until the first batch
	attempts := 0
	for len(rem) > 0 {
		reg, err := r.route(ctx, rem[0].Start)
		if err != nil {
			return err
		}
		req := rpc.ScanReq{Region: reg.id, Epoch: reg.epoch, Zoned: rem[0].Zoned, ZMin: rem[0].ZMin, ZMax: rem[0].ZMax}
		var servedTo []byte // end of the last range sent; nil = +inf
		n := 0
		for ; n < len(rem); n++ {
			sub, ok := rem[n].Intersect(reg.kr)
			if !ok {
				break
			}
			if n == 0 {
				req.Start, req.End = sub.Start, sub.End
			} else {
				req.More = append(req.More, rpc.Range{Start: sub.Start, End: sub.End})
			}
			servedTo = sub.End
		}
		if n == 0 {
			rem = rem[1:] // an empty or inverted range: nothing to scan
			continue
		}
		stopped := false
		err = r.doStream(ctx, reg.addr, rpc.OpScan, req.Append(nil), func(op byte, p []byte) (bool, error) {
			if op != rpc.OpScanBatch {
				return true, nil
			}
			var b rpc.ScanBatch
			if err := b.Decode(p); err != nil {
				return false, err
			}
			for i := range b.Keys {
				if !emit(b.Keys[i], b.Vals[i]) {
					stopped = true
					return false, nil
				}
			}
			if n := len(b.Keys); n > 0 {
				resume = append(resume[:0], b.Keys[n-1]...)
			}
			return true, nil
		})
		if stopped {
			return nil
		}
		if err == nil {
			attempts = 0
			// The region served every range sent: advance past them (and
			// past the region's end, where the last one was cut there).
			rem = skipTo(rem, servedTo)
			continue
		}
		if isStale(err) || rpc.IsTransport(err) {
			attempts++
			if attempts > routerMaxRetries {
				return translateErr(err)
			}
			if serr := r.sleepBackoff(ctx, attempts-1); serr != nil {
				return serr
			}
			if r.retryable(ctx, reg, err) {
				if resume != nil {
					// Resume just past the last delivered key. The emit
					// contract stays exact-once: re-delivered keys below
					// resume are impossible because the restarted scan
					// starts strictly after it.
					rem = skipTo(rem, append(append([]byte(nil), resume...), 0))
				}
				continue
			}
		}
		return translateErr(err)
	}
	return nil
}

func (r *Router) metrics() *Metrics { return &r.met }

func (r *Router) scanWidth() int {
	if n := len(r.opts.Peers); n > 1 {
		return n
	}
	return 1
}

// Flush persists every peer's memtables.
func (r *Router) Flush() error { return r.broadcast(rpc.OpFlush) }

// Compact fully compacts every peer.
func (r *Router) Compact() error { return r.broadcast(rpc.OpCompact) }

func (r *Router) broadcast(op byte) error {
	ctx := context.Background()
	var first error
	for _, addr := range r.opts.Peers {
		if _, err := r.do(ctx, addr, op, nil); err != nil && first == nil {
			first = translateErr(err)
		}
	}
	return first
}

// DiskSize sums on-disk bytes across every peer and role (replica
// copies included, matching Cluster.DiskSize).
func (r *Router) DiskSize() int64 {
	ctx := context.Background()
	var total int64
	for _, addr := range r.opts.Peers {
		p, err := r.do(ctx, addr, rpc.OpRegionMap, nil)
		if err != nil {
			continue
		}
		var resp rpc.RegionMapResp
		if err := rpc.UnmarshalAdmin(p, &resp); err != nil {
			continue
		}
		for _, info := range resp.Regions {
			total += info.Bytes
		}
	}
	return total
}

// Regions returns the routed region count.
func (r *Router) Regions() int {
	r.refresh(context.Background())
	return len(r.snapshot())
}

// Metrics aggregates the router's own counters with every reachable
// peer's storage counters (and, over TCP, the client's wire traffic).
func (r *Router) Metrics() Metrics {
	out := r.met.snapshot()
	ctx := context.Background()
	for _, addr := range r.opts.Peers {
		p, err := r.do(ctx, addr, rpc.OpStats, nil)
		if err != nil {
			continue
		}
		var m Metrics
		if err := json.Unmarshal(p, &m); err != nil {
			continue
		}
		out.add(m)
	}
	if r.own != nil {
		st := r.own.Stats()
		out.RPCBytesIn += st.BytesIn
		out.RPCBytesOut += st.BytesOut
		out.RPCRedials += st.Redials
	}
	opens, fastFails := r.health.counters()
	out.BreakerOpens += opens
	out.BreakerFastFails += fastFails
	return out
}

// RegisterKeyFamily is a no-op: extractors are Go functions that cannot
// be pushed to remote region servers, and the prefix length waits for a
// row format the region knows. Scans stay correct without them.
func (r *Router) RegisterKeyFamily(prefix []byte, f KeyFamily) {}

// Close stops the background loop and the owned transport. The region
// servers keep running — they are separate processes.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	r.wg.Wait()
	if r.own != nil {
		r.own.Close()
	}
	return nil
}

// Rebalance runs one maintenance pass: refresh the map, then either
// make one unit of merge progress (cold merges shrink the map, so they
// take priority — and rebalancing between merge steps would scatter the
// pairs being co-located) or move one region from the most- to the
// least-loaded peer. Exported so operators (and tests) can trigger a
// pass without waiting for the ticker.
func (r *Router) Rebalance(ctx context.Context) {
	if r.refresh(ctx) != nil {
		return
	}
	if r.mergeOnce(ctx) {
		return
	}
	r.rebalanceOnce(ctx)
}

// rebalanceOnce moves one region when the primary spread is ≥ 2.
func (r *Router) rebalanceOnce(ctx context.Context) {
	regs := r.snapshot()
	count := map[string]int{}
	for _, addr := range r.opts.Peers {
		count[addr] = 0
	}
	for _, reg := range regs {
		if _, known := count[reg.addr]; known {
			count[reg.addr]++
		}
	}
	maxAddr, minAddr := "", ""
	for _, addr := range r.opts.Peers { // deterministic peer order
		if maxAddr == "" || count[addr] > count[maxAddr] {
			maxAddr = addr
		}
		if minAddr == "" || count[addr] < count[minAddr] {
			minAddr = addr
		}
	}
	if maxAddr == "" || count[maxAddr]-count[minAddr] < 2 {
		return
	}
	// Move the smallest region: cheapest reseed for the same placement
	// improvement.
	var pick *routedRegion
	for i := range regs {
		reg := &regs[i]
		if reg.addr != maxAddr {
			continue
		}
		if pick == nil || reg.bytes < pick.bytes {
			pick = reg
		}
	}
	if pick != nil {
		r.moveRegion(ctx, *pick, minAddr)
	}
}

// moveRegion moves reg's leadership to dst: replicate (create an empty
// replica on dst and add it to the ship set, forcing a reseed), promote
// (dst takes over at a bumped epoch with the old replica set), retire
// (the old primary drops its copy). Writes keep flowing throughout —
// they target the old primary until the promote epoch lands, and every
// write acknowledged before the promote was shipped to dst
// synchronously.
func (r *Router) moveRegion(ctx context.Context, reg routedRegion, dst string) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if dst == reg.addr {
		return
	}
	// dst may already hold a replica copy; either way it is (re)created
	// empty and reseeded through the ship path, and it must not appear
	// in its own replica set once promoted.
	others := make([]string, 0, len(reg.replicas))
	for _, rep := range reg.replicas {
		if rep != dst {
			others = append(others, rep)
		}
	}
	create := rpc.CreateRegionReq{
		ID: reg.id, Epoch: reg.epoch, Start: reg.kr.Start, End: reg.kr.End,
		Role: rpc.RoleReplica, Reset: true,
	}
	if _, err := r.do(ctx, dst, rpc.OpCreateRegion, rpc.MarshalAdmin(&create)); err != nil {
		return
	}
	// Re-promote the current primary in place with dst in the replica
	// set; shipping to an unseeded peer reseeds it with the full state.
	shipSet := append(append([]string(nil), others...), dst)
	p1 := rpc.PromoteReq{Region: reg.id, NewEpoch: reg.epoch + 1, Replicas: shipSet}
	if _, err := r.do(ctx, reg.addr, rpc.OpPromote, rpc.MarshalAdmin(&p1)); err != nil {
		return
	}
	// An empty batch forces one ship round, seeding dst even on an idle
	// region.
	sync := rpc.PutBatchReq{Region: reg.id, Epoch: reg.epoch + 1, Payload: encodeBatchPayload(nil, nil)}
	if _, err := r.do(ctx, reg.addr, rpc.OpPutBatch, sync.Append(nil)); err != nil {
		return
	}
	// Leadership lands on dst; the old primary's copy retires.
	p2 := rpc.PromoteReq{Region: reg.id, NewEpoch: reg.epoch + 2, Replicas: others}
	if _, err := r.do(ctx, dst, rpc.OpPromote, rpc.MarshalAdmin(&p2)); err != nil {
		return
	}
	retire := rpc.RetireReq{Region: reg.id}
	r.do(ctx, reg.addr, rpc.OpRetire, rpc.MarshalAdmin(&retire))
	atomic.AddInt64(&r.met.RegionMoves, 1)
	r.refresh(ctx)
}

// mergeOnce makes one unit of cold-merge progress and reports whether
// it did anything: it merges one adjacent cold pair sharing a primary
// and replica set, or — when a cold pair straddles two primaries (the
// rebalancer interleaves placement) — first moves one side so a later
// pass can merge them.
func (r *Router) mergeOnce(ctx context.Context) bool {
	if r.opts.MergeBytes <= 0 {
		return false
	}
	regs := r.snapshot()
	for i := 0; i+1 < len(regs); i++ {
		a, b := regs[i], regs[i+1]
		if a.kr.End == nil || !bytes.Equal(a.kr.End, b.kr.Start) {
			continue
		}
		if a.bytes >= r.opts.MergeBytes || b.bytes >= r.opts.MergeBytes {
			continue
		}
		if !sameStrings(a.replicas, b.replicas) {
			continue
		}
		if a.addr != b.addr {
			// Co-locate first; the merge itself happens next pass.
			r.moveRegion(ctx, b, a.addr)
			return true
		}
		newID := routerIDBase + r.idCtr.Add(1)
		epoch := a.epoch
		if b.epoch > epoch {
			epoch = b.epoch
		}
		req := rpc.MergeReq{Left: a.id, Right: b.id, NewID: newID, Epoch: epoch + 1}
		payload := rpc.MarshalAdmin(&req)
		if _, err := r.do(ctx, a.addr, rpc.OpMerge, payload); err != nil {
			return false
		}
		// Replica copies merge too, best effort; a replica that misses
		// the merge reseeds when the merged primary first ships to it.
		for _, rep := range a.replicas {
			r.do(ctx, rep, rpc.OpMerge, payload)
		}
		r.refresh(ctx)
		return true
	}
	return false
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
