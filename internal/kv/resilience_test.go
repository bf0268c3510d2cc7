package kv

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"just/internal/rpc"
)

// Resilience tests: circuit breakers, bounded retries with backoff,
// hedged reads and end-to-end deadline propagation — the machinery that
// keeps a router-fronted cluster responsive while peers die, stall and
// revive underneath it.

// countingTransport counts Do/Stream calls per peer, so tests can
// assert the breaker actually suppresses dials to a dead peer.
type countingTransport struct {
	base Transport

	mu    sync.Mutex
	calls map[string]int
}

func newCountingTransport(base Transport) *countingTransport {
	return &countingTransport{base: base, calls: map[string]int{}}
}

func (c *countingTransport) note(addr string) {
	c.mu.Lock()
	c.calls[addr]++
	c.mu.Unlock()
}

func (c *countingTransport) count(addr string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[addr]
}

func (c *countingTransport) Do(ctx context.Context, addr string, op byte, payload []byte) ([]byte, error) {
	c.note(addr)
	return c.base.Do(ctx, addr, op, payload)
}

func (c *countingTransport) Stream(ctx context.Context, addr string, op byte, payload []byte, onFrame func(op byte, payload []byte) (bool, error)) error {
	c.note(addr)
	return c.base.Stream(ctx, addr, op, payload, onFrame)
}

func peerBreaker(t *testing.T, r *Router, addr string) string {
	t.Helper()
	for _, p := range r.PeerHealth() {
		if p.Addr == addr {
			return p.Breaker
		}
	}
	return ""
}

// fastRetry keeps test retry sleeps in the low milliseconds.
func fastRetry(o RouterOptions) RouterOptions {
	o.RetryBackoff = time.Millisecond
	o.RetryBackoffMax = 4 * time.Millisecond
	return o
}

func TestBreakerOpensOnDeadPeerAndProberReadmits(t *testing.T) {
	lb, _, r := startChaosCluster(t, 2, 11, NodeOptions{}, fastRetry(RouterOptions{
		BreakerFailures: 2,
		ProbeInterval:   25 * time.Millisecond,
	}))
	if err := put(r, []byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	lb.SetDown("s1", true)
	if _, err := r.GetCtx(bg, []byte("k1")); err == nil {
		t.Fatal("get succeeded with the only primary down")
	}
	if st := peerBreaker(t, r, "s1"); st != breakerOpen {
		t.Fatalf("s1 breaker = %q after repeated failures, want %q", st, breakerOpen)
	}
	m := r.Metrics()
	if m.BreakerOpens == 0 {
		t.Fatal("BreakerOpens = 0; the open transition was not counted")
	}
	if m.BreakerFastFails == 0 {
		t.Fatal("BreakerFastFails = 0; no request was refused while open")
	}

	// Revive the peer: the background prober must readmit it without any
	// live traffic having to trip over the open breaker.
	lb.SetDown("s1", false)
	deadline := time.Now().Add(3 * time.Second)
	for peerBreaker(t, r, "s1") != breakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("s1 breaker = %q 3s after revival, want %q", peerBreaker(t, r, "s1"), breakerClosed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v, err := r.GetCtx(bg, []byte("k1")); err != nil || string(v) != "v1" {
		t.Fatalf("get after readmission = %q, %v", v, err)
	}
}

func TestBreakerBoundsDialsToDeadPeer(t *testing.T) {
	lb := NewLoopback()
	ct := newCountingTransport(lb)
	testNode(t, lb, "s1", 1, NodeOptions{})
	testNode(t, lb, "s2", 2, NodeOptions{})
	r, err := OpenRouter(fastRetry(RouterOptions{
		Peers: []string{"s1", "s2"}, Transport: ct,
		BreakerFailures: 2,
		ProbeInterval:   time.Hour, // no probes: the breaker must do the limiting
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := put(r, []byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	lb.SetDown("s1", true)
	before := ct.count("s1")
	if _, err := r.GetCtx(bg, []byte("k1")); err == nil {
		t.Fatal("get succeeded with the only primary down")
	}
	// The whole retry storm — route refreshes, failover probes, the read
	// itself, 8 routing attempts — may only reach the wire until the
	// breaker opens; everything after fails fast without a dial.
	if dials := ct.count("s1") - before; dials > 3 {
		t.Fatalf("%d transport calls reached the dead peer, want <= 3 (breaker not limiting)", dials)
	}
	if m := r.Metrics(); m.BreakerFastFails == 0 {
		t.Fatal("BreakerFastFails = 0; retries were not short-circuited")
	}
}

func TestHedgedReadBeatsSlowPrimary(t *testing.T) {
	lb := NewLoopback()
	ft := NewFaultTransport(lb, 21)
	testNode(t, lb, "s1", 1, NodeOptions{})
	testNode(t, lb, "s2", 2, NodeOptions{})
	r, err := OpenRouter(fastRetry(RouterOptions{
		Peers: []string{"s1", "s2"}, Transport: ft,
		Replicas:   1,
		HedgeAfter: 10 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := put(r, []byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// The primary develops a 300ms stall on point reads; the replica
	// stays fast. A hedged read must come back from the replica in
	// roughly HedgeAfter, not wait out the stall.
	ft.Add(TransportFaultRule{Addr: "s1", Op: rpc.OpGet, Prob: 1, Delay: 300 * time.Millisecond})
	start := time.Now()
	v, err := r.GetCtx(bg, []byte("k1"))
	elapsed := time.Since(start)
	if err != nil || string(v) != "v1" {
		t.Fatalf("hedged get = %q, %v", v, err)
	}
	if elapsed >= 250*time.Millisecond {
		t.Fatalf("hedged get took %v; the hedge never fired (stall is 300ms)", elapsed)
	}
	m := r.Metrics()
	if m.RPCHedges == 0 {
		t.Fatal("RPCHedges = 0; no hedge was issued")
	}
	if m.RPCHedgeWins == 0 {
		t.Fatal("RPCHedgeWins = 0; the replica's answer was not used")
	}
}

func TestHedgedMultiGetBeatsSlowPrimary(t *testing.T) {
	lb := NewLoopback()
	ft := NewFaultTransport(lb, 23)
	testNode(t, lb, "s1", 1, NodeOptions{})
	testNode(t, lb, "s2", 2, NodeOptions{})
	r, err := OpenRouter(fastRetry(RouterOptions{
		Peers: []string{"s1", "s2"}, Transport: ft,
		Replicas:   1,
		HedgeAfter: 10 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var b WriteBatch
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	for _, k := range keys {
		b.Put(k, append([]byte("v-"), k...))
	}
	if err := r.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	ft.Add(TransportFaultRule{Addr: "s1", Op: rpc.OpMultiGet, Prob: 1, Delay: 300 * time.Millisecond})
	start := time.Now()
	vals, err := r.MultiGetCtx(bg, keys)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 250*time.Millisecond {
		t.Fatalf("hedged multiget took %v", elapsed)
	}
	for i, k := range keys {
		if want := "v-" + string(k); string(vals[i]) != want {
			t.Fatalf("vals[%d] = %q, want %q", i, vals[i], want)
		}
	}
	if m := r.Metrics(); m.RPCHedgeWins == 0 {
		t.Fatal("RPCHedgeWins = 0")
	}
}

// TestDeadlineAbortsScanServerSide drives a scan whose consumer is too
// slow for its budget and asserts the region server stops walking the
// region (DeadlineAborts) instead of streaming into a dead request,
// and that the caller sees context.DeadlineExceeded.
//
// The consumer stalls on the last row of the first batch until the
// budget is spent. Over the loopback transport that row is delivered
// inside the region's Send, so the region's next step is its own
// budget check between batches. Had the deadline fired while the
// router was still handing out a batch's rows, the router would cancel
// the stream first and the region would count a ScanCancel instead.
func TestDeadlineAbortsScanServerSide(t *testing.T) {
	lb := NewLoopback()
	node := testNode(t, lb, "s1", 1, NodeOptions{})
	r, err := OpenRouter(fastRetry(RouterOptions{Peers: []string{"s1"}, Transport: lb}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var b WriteBatch
	for i := 0; i < 20000; i++ {
		b.Put([]byte(fmt.Sprintf("k%06d", i)), []byte("v"))
		if b.Len() == 1000 {
			if err := r.ApplyCtx(bg, &b); err != nil {
				t.Fatal(err)
			}
			b = WriteBatch{}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	rows := 0
	err = ScanRange(ctx, r, KeyRange{}, func(k, v []byte) bool {
		rows++
		if rows%scanBatchSize == 0 {
			<-ctx.Done()
		}
		return true
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("scan err = %v, want context.DeadlineExceeded", err)
	}
	if rows >= 20000 {
		t.Fatal("scan delivered every row despite the expired deadline")
	}
	// The loopback handler has returned by now; the bounded poll keeps
	// the check valid on a transport whose handler outlives the call.
	deadline := time.Now().Add(2 * time.Second)
	for node.Metrics().DeadlineAborts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("DeadlineAborts = 0; the server never noticed the expired budget")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startTCPCluster runs n region nodes on real sockets behind a router,
// returning the nodes and their rpc servers for server-side assertions.
func startTCPCluster(t *testing.T, n int, ropts RouterOptions) (*Router, []*RegionNode, []*rpc.Server) {
	t.Helper()
	cl := rpc.NewClient(rpc.ClientOptions{})
	nodes := make([]*RegionNode, n)
	srvs := make([]*rpc.Server, n)
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		node, err := OpenRegionNode(t.TempDir(), NodeOptions{
			Options:   Options{DisableWAL: true},
			NodeID:    i + 1,
			Transport: cl,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := rpc.Serve("127.0.0.1:0", node.Handler(), rpc.ServerOptions{})
		if err != nil {
			node.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); node.Close() })
		nodes[i], srvs[i], peers[i] = node, srv, srv.Addr()
	}
	ropts.Peers = peers
	ropts.Transport = cl
	t.Cleanup(cl.Close)
	r, err := OpenRouter(ropts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, nodes, srvs
}

// TestDeadlineScanAbortOverTCP is the wire version of the server-side
// abort: the budget travels in the frame's deadline envelope, so the
// region server must stop the scan even though the deadline was set in
// another process's context.
func TestDeadlineScanAbortOverTCP(t *testing.T) {
	r, nodes, srvs := startTCPCluster(t, 1, fastRetry(RouterOptions{}))
	var b WriteBatch
	// ~30 MB of result: enough that the kernel's socket buffers cannot
	// absorb the whole stream, so the server is still pushing frames
	// when the client deadline lands (otherwise a fast machine finishes
	// the scan before there is anything to abort and the test flakes).
	val := make([]byte, 1024)
	for i := 0; i < 30000; i++ {
		b.Put([]byte(fmt.Sprintf("k%07d", i)), val)
		if b.Len() == 1000 {
			if err := r.ApplyCtx(bg, &b); err != nil {
				t.Fatal(err)
			}
			b = WriteBatch{}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	rows := 0
	err := ScanRange(ctx, r, KeyRange{}, func(k, v []byte) bool {
		rows++
		if rows%scanBatchSize == 0 {
			time.Sleep(8 * time.Millisecond)
		}
		return true
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("scan err = %v, want context.DeadlineExceeded", err)
	}
	// The server aborts through whichever signal lands first: the
	// propagated deadline between batches, or the torn connection when
	// the client's deadline kills the socket mid-stream.
	deadline := time.Now().Add(2 * time.Second)
	for {
		m := nodes[0].Metrics()
		if m.DeadlineAborts+m.ScanCancels > 0 || srvs[0].Stats().Canceled > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never aborted: DeadlineAborts=%d ScanCancels=%d Canceled=%d",
				m.DeadlineAborts, m.ScanCancels, srvs[0].Stats().Canceled)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestScanEarlyStopCancelsServerOverTCP stops consuming mid-scan (the
// LIMIT-query shape) and asserts the cancel frame reaches the region
// server before it walks the whole region.
func TestScanEarlyStopCancelsServerOverTCP(t *testing.T) {
	r, nodes, srvs := startTCPCluster(t, 1, fastRetry(RouterOptions{}))
	var b WriteBatch
	val := make([]byte, 200)
	for i := 0; i < 30000; i++ {
		b.Put([]byte(fmt.Sprintf("k%07d", i)), val)
		if b.Len() == 1000 {
			if err := r.ApplyCtx(bg, &b); err != nil {
				t.Fatal(err)
			}
			b = WriteBatch{}
		}
	}
	rows := 0
	err := ScanRange(bg, r, KeyRange{}, func(k, v []byte) bool {
		rows++
		return rows < 10 // stop almost immediately
	})
	if err != nil {
		t.Fatalf("early-stopped scan: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for nodes[0].Metrics().ScanCancels == 0 && srvs[0].Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never observed the canceled stream")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFaultTransportLatencyRule(t *testing.T) {
	lb := NewLoopback()
	ft := NewFaultTransport(lb, 1)
	testNode(t, lb, "s1", 1, NodeOptions{})
	ft.Add(TransportFaultRule{Addr: "s1", Op: rpc.OpPing, Prob: 1, Delay: 50 * time.Millisecond, Jitter: 10 * time.Millisecond})

	start := time.Now()
	if _, err := ft.Do(context.Background(), "s1", rpc.OpPing, nil); err != nil {
		t.Fatalf("delayed ping: %v", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("delayed ping returned in %v, want >= 50ms", d)
	}
	if ft.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", ft.Injected())
	}

	// A canceled caller is released before the hold elapses.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err := ft.Do(ctx, "s1", rpc.OpPing, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d >= 50*time.Millisecond {
		t.Fatalf("canceled hold still took %v", d)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	base, cap := 2*time.Millisecond, 64*time.Millisecond
	for attempt := 0; attempt < 40; attempt++ {
		want := base << uint(attempt)
		if want > cap || want <= 0 {
			want = cap
		}
		for i := 0; i < 50; i++ {
			d := backoff(base, cap, attempt)
			if d < want/2 || d > want {
				t.Fatalf("backoff(attempt=%d) = %v, want in [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
	// Defaults apply when unconfigured.
	if d := backoff(0, 0, 0); d < 2500*time.Microsecond || d > 5*time.Millisecond {
		t.Fatalf("backoff defaults: %v, want in [2.5ms, 5ms]", d)
	}
}

// TestChaosKilledPeerBoundedWork runs a steady read workload across a
// peer kill and asserts (a) every op still succeeds via failover and
// (b) the dead peer stops being dialed once its breaker opens, instead
// of eating a connection attempt per operation.
func TestChaosKilledPeerBoundedWork(t *testing.T) {
	lb := NewLoopback()
	ct := newCountingTransport(lb)
	for i := 1; i <= 3; i++ {
		testNode(t, lb, fmt.Sprintf("s%d", i), i, NodeOptions{})
	}
	r, err := OpenRouter(fastRetry(RouterOptions{
		Peers: []string{"s1", "s2", "s3"}, Transport: ct,
		Replicas:        1,
		BreakerFailures: 2,
		ProbeInterval:   time.Hour,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const rows = 100
	for i := 0; i < rows; i++ {
		if err := put(r, []byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	lb.SetDown("s1", true)
	before := ct.count("s1")
	for i := 0; i < rows; i++ {
		v, err := r.GetCtx(bg, []byte(fmt.Sprintf("k%04d", i)))
		if err != nil || string(v) != "v" {
			t.Fatalf("get %d across kill = %q, %v", i, v, err)
		}
	}
	if st := peerBreaker(t, r, "s1"); st != breakerOpen {
		t.Fatalf("s1 breaker = %q, want %q", st, breakerOpen)
	}
	// A handful of calls reach the dead peer before the breaker opens
	// (the failing read, refresh probes); the other ~97 reads must not
	// add any.
	if dials := ct.count("s1") - before; dials > 10 {
		t.Fatalf("%d transport calls to the killed peer across %d ops, want <= 10", dials, rows)
	}
	if m := r.Metrics(); m.Failovers == 0 {
		t.Fatal("Failovers = 0; reads succeeded without promoting the replica?")
	}
}
