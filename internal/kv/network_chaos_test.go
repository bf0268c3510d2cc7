package kv

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"just/internal/rpc"
)

// Network chaos tests: the rpc-boundary counterpart of the FaultFS disk
// fault tests. A FaultTransport wraps the loopback fabric and injects
// partitions with the same rule shape (match, probability, budget);
// every test asserts the router's stale-map/retry/failover machinery
// converges with no lost or duplicated rows.

func startChaosCluster(t *testing.T, n int, seed int64, nopts NodeOptions, ropts RouterOptions) (*Loopback, *FaultTransport, *Router) {
	t.Helper()
	lb := NewLoopback()
	ft := NewFaultTransport(lb, seed)
	var peers []string
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("s%d", i+1)
		// Nodes ship to each other through the fault injector too.
		nopts2 := nopts
		testNode(t, lb, addr, i+1, nopts2)
		peers = append(peers, addr)
	}
	ropts.Peers = peers
	ropts.Transport = ft
	r, err := OpenRouter(ropts)
	if err != nil {
		t.Fatalf("OpenRouter: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return lb, ft, r
}

func TestChaosPartitionMidScanConverges(t *testing.T) {
	_, ft, r := startChaosCluster(t, 2, 1, NodeOptions{}, RouterOptions{})
	var b WriteBatch
	for i := 0; i < 5000; i++ {
		b.Put([]byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := r.ApplyCtx(bg, &b); err != nil {
		t.Fatalf("apply: %v", err)
	}

	// Cut the scan stream after two frames, twice: the router must
	// resume each time from just past the last delivered key.
	ft.Add(TransportFaultRule{Op: rpc.OpScan, Prob: 1, Count: 2, AfterFrames: 2})
	var prev []byte
	got := 0
	err := ScanRange(bg, r, KeyRange{}, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("duplicate or out-of-order row %q after %q", k, prev)
		}
		prev = append(prev[:0], k...)
		got++
		return true
	})
	if err != nil {
		t.Fatalf("scan with partitions: %v", err)
	}
	if got != 5000 {
		t.Fatalf("scan saw %d rows, want 5000 (lost %d)", got, 5000-got)
	}
	if ft.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", ft.Injected())
	}
	if m := r.Metrics(); m.RPCRetries == 0 {
		t.Fatal("RPCRetries = 0, retries not counted")
	}
}

func TestChaosPartitionMidIngestNoLoss(t *testing.T) {
	_, ft, r := startChaosCluster(t, 2, 7, NodeOptions{}, RouterOptions{})
	// Every ~10th write attempt fails at the wire before reaching the
	// server; the router must retry each one to acknowledgment.
	ft.Add(TransportFaultRule{Op: rpc.OpPutBatch, Prob: 0.1})

	const rows = 2000
	for i := 0; i < rows; i++ {
		if err := put(r, []byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	ft.Clear()
	if ft.Injected() == 0 {
		t.Fatal("no faults injected; the test exercised nothing")
	}
	got := 0
	if err := ScanRange(bg, r, KeyRange{}, func(k, v []byte) bool { got++; return true }); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if got != rows {
		t.Fatalf("acknowledged %d writes but scan sees %d", rows, got)
	}
}

func TestChaosKillPrimaryNoAcknowledgedWriteLost(t *testing.T) {
	lb, _, r := startChaosCluster(t, 3, 1, NodeOptions{}, RouterOptions{Replicas: 1})

	const before = 500
	for i := 0; i < before; i++ {
		if err := put(r, []byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Partition the bootstrap primary mid-workload. Every write above
	// was acknowledged, therefore already shipped synchronously to the
	// replica — none may be lost.
	lb.SetDown("s1", true)
	for i := before; i < before+100; i++ {
		if err := put(r, []byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatalf("put after kill %d: %v", i, err)
		}
	}
	got := 0
	if err := ScanRange(bg, r, KeyRange{}, func(k, v []byte) bool { got++; return true }); err != nil {
		t.Fatalf("scan after failover: %v", err)
	}
	if got != before+100 {
		t.Fatalf("scan sees %d rows, want %d — acknowledged writes lost", got, before+100)
	}
	if m := r.Metrics(); m.Failovers == 0 {
		t.Fatal("Failovers = 0 after primary kill")
	}
	// The healed old primary must not resurrect stale leadership: its
	// epoch-1 copy answers CodeStaleRegion to nothing (the router routes
	// by max epoch) and reads keep coming from the promoted node.
	lb.SetDown("s1", false)
	if v, err := r.GetCtx(bg, []byte("k000000")); err != nil || string(v) != "v" {
		t.Fatalf("get after heal = %q, %v", v, err)
	}
}

func TestChaosSplitUnderConcurrentIngest(t *testing.T) {
	_, _, r := startChaosCluster(t, 3, 3,
		NodeOptions{Options: Options{MemtableBytes: 8 << 10}, SplitBytes: 48 << 10},
		RouterOptions{})

	// Concurrent writers race the autonomous splits; every acknowledged
	// write must surface in the final scan exactly once.
	const writers, perWriter = 4, 400
	val := bytes.Repeat([]byte("v"), 200)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-%05d", w, i)
				if err := put(r, []byte(k), val); err != nil {
					errs <- fmt.Errorf("put %s: %w", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	err := ScanRange(bg, r, KeyRange{}, func(k, v []byte) bool {
		if seen[string(k)] {
			t.Fatalf("duplicate row %q", k)
		}
		seen[string(k)] = true
		return true
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("scan sees %d rows, want %d", len(seen), writers*perWriter)
	}
	if r.Regions() < 2 {
		t.Error("expected at least one split under this ingest volume")
	}
}

func TestChaosRefreshWithPrimaryDownKeepsRegion(t *testing.T) {
	lb, _, r := startChaosCluster(t, 3, 5, NodeOptions{}, RouterOptions{Replicas: 1})
	const before = 200
	for i := 0; i < before; i++ {
		if err := put(r, []byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	lb.SetDown("s1", true)
	// A map refresh races ahead of the first post-kill write (the
	// rebalance loop does exactly this in a live deployment). The dead
	// primary's region is reported only by its replica; it must stay
	// in the map and fail over — dropping it would make every write
	// return ErrStaleRegion without ever reaching the failover path.
	if err := r.refresh(context.Background()); err != nil {
		t.Fatalf("refresh with primary down: %v", err)
	}
	if r.Regions() == 0 {
		t.Fatal("region map emptied by refresh while primary down")
	}
	for i := before; i < before+50; i++ {
		if err := put(r, []byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatalf("put after refresh %d: %v", i, err)
		}
	}
	got := 0
	if err := ScanRange(bg, r, KeyRange{}, func(k, v []byte) bool { got++; return true }); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if got != before+50 {
		t.Fatalf("scan sees %d rows, want %d", got, before+50)
	}
	if m := r.Metrics(); m.Failovers == 0 {
		t.Fatal("Failovers = 0; refresh did not promote a replacement")
	}
}

func TestChaosRouterRestartWhilePrimaryDown(t *testing.T) {
	lb, ft, r := startChaosCluster(t, 3, 9, NodeOptions{}, RouterOptions{Replicas: 1})
	const rows = 300
	for i := 0; i < rows; i++ {
		if err := put(r, []byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	r.Close()
	lb.SetDown("s1", true)
	// A fresh router coming up mid-outage sees only replica reports for
	// region 1. It must synthesize the entry and promote the replica —
	// not conclude the cluster is empty and re-bootstrap on the dead
	// peer (which fails and leaves the router unable to start at all).
	r2, err := OpenRouter(RouterOptions{
		Peers: []string{"s1", "s2", "s3"}, Replicas: 1, Transport: ft,
	})
	if err != nil {
		t.Fatalf("OpenRouter while primary down: %v", err)
	}
	defer r2.Close()
	got := 0
	if err := ScanRange(bg, r2, KeyRange{}, func(k, v []byte) bool { got++; return true }); err != nil {
		t.Fatalf("scan via restarted router: %v", err)
	}
	if got != rows {
		t.Fatalf("scan sees %d rows, want %d", got, rows)
	}
	if err := put(r2, []byte("k-after-restart"), []byte("v")); err != nil {
		t.Fatalf("put via restarted router: %v", err)
	}
}
