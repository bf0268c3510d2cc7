package kv

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"just/internal/rpc"
)

// startRouterCluster spins up n region nodes on a loopback fabric at
// addresses s1..sN and opens a router over them.
func startRouterCluster(t *testing.T, n int, nopts NodeOptions, ropts RouterOptions) (*Loopback, []*RegionNode, *Router) {
	t.Helper()
	lb := NewLoopback()
	nodes := make([]*RegionNode, n)
	var peers []string
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("s%d", i+1)
		nodes[i] = testNode(t, lb, addr, i+1, nopts)
		peers = append(peers, addr)
	}
	ropts.Peers = peers
	if ropts.Transport == nil {
		ropts.Transport = lb
	}
	r, err := OpenRouter(ropts)
	if err != nil {
		t.Fatalf("OpenRouter: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return lb, nodes, r
}

func TestRouterBasicOps(t *testing.T) {
	_, _, r := startRouterCluster(t, 3, NodeOptions{}, RouterOptions{})

	if err := put(r, []byte("alpha"), []byte("1")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if v, err := r.GetCtx(bg, []byte("alpha")); err != nil || string(v) != "1" {
		t.Fatalf("get = %q, %v", v, err)
	}
	if _, err := r.GetCtx(bg, []byte("nope")); err != ErrNotFound {
		t.Fatalf("get missing = %v, want ErrNotFound", err)
	}
	var del WriteBatch
	del.Delete([]byte("alpha"))
	if err := r.ApplyCtx(bg, &del); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := r.GetCtx(bg, []byte("alpha")); err != ErrNotFound {
		t.Fatalf("get deleted = %v, want ErrNotFound", err)
	}

	var b WriteBatch
	for i := 0; i < 200; i++ {
		b.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := r.ApplyCtx(bg, &b); err != nil {
		t.Fatalf("apply: %v", err)
	}
	vals, err := r.MultiGetCtx(bg, [][]byte{[]byte("k000"), []byte("zz"), []byte("k199")})
	if err != nil {
		t.Fatalf("multiget: %v", err)
	}
	if string(vals[0]) != "v0" || vals[1] != nil || string(vals[2]) != "v199" {
		t.Fatalf("multiget = %q", vals)
	}

	var keys []string
	err = ScanRange(bg, r, KeyRange{Start: []byte("k100"), End: []byte("k110")}, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(keys) != 10 || keys[0] != "k100" || keys[9] != "k109" {
		t.Fatalf("scan keys = %v", keys)
	}

	count := 0
	err = scanPairs(bg, r, []KeyRange{
		{Start: []byte("k000"), End: []byte("k050")},
		{Start: []byte("k150"), End: []byte("k200")},
	}, func(k, v []byte) bool { count++; return true })
	if err != nil {
		t.Fatalf("scanranges: %v", err)
	}
	if count != 100 {
		t.Fatalf("scanranges count = %d, want 100", count)
	}
	var dels WriteBatch
	dels.Delete([]byte("k000"))
	dels.Delete([]byte("k001"))
	if err := r.ApplyCtx(bg, &dels); err != nil {
		t.Fatalf("delete batch: %v", err)
	}
	if _, err := r.GetCtx(bg, []byte("k000")); err != ErrNotFound {
		t.Fatalf("get after delete batch = %v", err)
	}
}

func TestRouterSplitKeepsScanExact(t *testing.T) {
	_, _, r := startRouterCluster(t, 3,
		NodeOptions{Options: Options{MemtableBytes: 8 << 10}, SplitBytes: 48 << 10},
		RouterOptions{})

	// Live ingest past the split threshold; the router must keep routing
	// through the epoch churn without ever failing a write.
	val := bytes.Repeat([]byte("v"), 200)
	want := map[string]string{}
	for i := 0; i < 1500; i++ {
		k := fmt.Sprintf("row-%05d", i)
		if err := put(r, []byte(k), val); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		want[k] = string(val)
	}
	if got := r.Regions(); got < 2 {
		t.Fatalf("no split under ingest: %d regions", got)
	}

	// Scan result must be byte-identical to the logical content: every
	// key exactly once, in order, correct values.
	var prev []byte
	got := 0
	err := ScanRange(bg, r, KeyRange{}, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan order violation: %q after %q", k, prev)
		}
		prev = append(prev[:0], k...)
		w, ok := want[string(k)]
		if !ok || w != string(v) {
			t.Fatalf("scan row %q unexpected or wrong value", k)
		}
		got++
		return true
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if got != len(want) {
		t.Fatalf("scan saw %d rows, want %d", got, len(want))
	}
	if m := r.Metrics(); m.RegionSplits == 0 {
		t.Fatalf("RegionSplits = 0 after split, metrics = %+v", m)
	}
}

func TestRouterRebalanceMovesRegions(t *testing.T) {
	_, _, r := startRouterCluster(t, 3,
		NodeOptions{Options: Options{MemtableBytes: 8 << 10}, SplitBytes: 32 << 10},
		RouterOptions{})

	// All ingest lands on s1 (the bootstrap primary), splitting it into
	// several regions; the rebalancer should spread the primaries out.
	val := bytes.Repeat([]byte("v"), 200)
	for i := 0; i < 2000; i++ {
		if err := put(r, []byte(fmt.Sprintf("row-%05d", i)), val); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if got := r.Regions(); got < 3 {
		t.Skipf("need ≥3 regions to rebalance, got %d", got)
	}
	for i := 0; i < 10; i++ {
		r.Rebalance(context.Background())
	}
	count := map[string]int{}
	for _, reg := range r.snapshot() {
		count[reg.addr]++
	}
	if len(count) < 2 {
		t.Fatalf("rebalance left all primaries on one node: %v", count)
	}
	if m := r.Metrics(); m.RegionMoves == 0 {
		t.Fatal("RegionMoves = 0 after rebalance")
	}
	// Data survives the moves intact.
	got := 0
	if err := ScanRange(bg, r, KeyRange{}, func(k, v []byte) bool { got++; return true }); err != nil {
		t.Fatalf("scan after rebalance: %v", err)
	}
	if got != 2000 {
		t.Fatalf("scan after rebalance = %d rows, want 2000", got)
	}
}

func TestRouterColdMergeShrinksMap(t *testing.T) {
	_, _, r := startRouterCluster(t, 2,
		NodeOptions{Options: Options{MemtableBytes: 4 << 10}, SplitBytes: 24 << 10},
		RouterOptions{MergeBytes: 1 << 30})

	val := bytes.Repeat([]byte("v"), 200)
	for i := 0; i < 1200; i++ {
		if err := put(r, []byte(fmt.Sprintf("row-%05d", i)), val); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	before := r.Regions()
	if before < 2 {
		t.Skipf("need ≥2 regions to merge, got %d", before)
	}
	deadline := time.Now().Add(30 * time.Second)
	for r.Regions() > 1 {
		r.Rebalance(context.Background())
		if time.Now().After(deadline) {
			t.Fatalf("merge did not converge: still %d regions", r.Regions())
		}
	}
	got := 0
	if err := ScanRange(bg, r, KeyRange{}, func(k, v []byte) bool { got++; return true }); err != nil {
		t.Fatalf("scan after merge: %v", err)
	}
	if got != 1200 {
		t.Fatalf("scan after merge = %d rows, want 1200", got)
	}
	if m := r.Metrics(); m.RegionMerges == 0 {
		t.Fatal("RegionMerges = 0 after merges")
	}
}

func TestRouterRestartsFromPersistedTopology(t *testing.T) {
	// A second router over the same fabric adopts the existing regions
	// instead of re-bootstrapping.
	lb, _, r := startRouterCluster(t, 2, NodeOptions{}, RouterOptions{Replicas: 1})
	if err := put(r, []byte("x"), []byte("1")); err != nil {
		t.Fatalf("put: %v", err)
	}
	r2, err := OpenRouter(RouterOptions{Peers: []string{"s1", "s2"}, Transport: lb})
	if err != nil {
		t.Fatalf("second router: %v", err)
	}
	defer r2.Close()
	if v, err := r2.GetCtx(bg, []byte("x")); err != nil || string(v) != "1" {
		t.Fatalf("second router get = %q, %v", v, err)
	}
	if got := r2.Regions(); got != 1 {
		t.Fatalf("second router sees %d regions, want 1", got)
	}
}

// putRecorder records the region of every PutBatch sent through it, and
// fails the next one with a transport error when failNext is set.
type putRecorder struct {
	Transport
	mu       sync.Mutex
	regions  []uint64
	failNext bool
}

func (p *putRecorder) Do(ctx context.Context, addr string, op byte, payload []byte) ([]byte, error) {
	if op == rpc.OpPutBatch {
		var req rpc.PutBatchReq
		if err := req.Decode(payload); err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.regions = append(p.regions, req.Region)
		fail := p.failNext
		p.failNext = false
		p.mu.Unlock()
		if fail {
			return nil, &rpc.TransportError{Addr: addr, Err: errPeerDown}
		}
	}
	return p.Transport.Do(ctx, addr, op, payload)
}

// TestRouterAppliesGroupsInBatchOrder: a batch's region groups are
// applied in the order of their first mutation, and a group that must
// be retried holds back every group after it, so a caller can land one
// group's mutations before another's (the table layer's span rows
// before its data).
func TestRouterAppliesGroupsInBatchOrder(t *testing.T) {
	lb := NewLoopback()
	testNode(t, lb, "s1", 1, NodeOptions{Options: Options{MemtableBytes: 8 << 10}, SplitBytes: 32 << 10})
	rec := &putRecorder{Transport: lb}
	r, err := OpenRouter(RouterOptions{Peers: []string{"s1"}, Transport: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	val := bytes.Repeat([]byte("v"), 200)
	for i := 0; i < 2000; i++ {
		if err := put(r, []byte(fmt.Sprintf("row-%05d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	first, last := []byte("row-01999"), []byte("row-00000")
	// The node splits a region after it answers the write that
	// overfilled it, so a split may still be running when the puts
	// return. A run in which one of the two regions split re-sends to a
	// daughter and says nothing about the order; it is run again.
	for attempt := 1; ; attempt++ {
		a, errA := r.route(bg, first)
		b, errB := r.route(bg, last)
		if errA != nil || errB != nil || a.id == b.id {
			t.Fatalf("want the two keys in two regions: %d, %d (%v, %v)", a.id, b.id, errA, errB)
		}
		var batch WriteBatch
		batch.Put(first, []byte("1"))
		batch.Put(last, []byte("2"))
		rec.mu.Lock()
		rec.regions, rec.failNext = nil, true
		rec.mu.Unlock()
		if err := r.ApplyCtx(bg, &batch); err != nil {
			t.Fatal(err)
		}
		rec.mu.Lock()
		got := fmt.Sprint(rec.regions)
		rec.mu.Unlock()
		a2, errA := r.route(bg, first)
		b2, errB := r.route(bg, last)
		if errA == nil && errB == nil && (a2.id != a.id || b2.id != b.id) && attempt < 5 {
			continue
		}
		if want := fmt.Sprint([]uint64{a.id, a.id, b.id}); got != want {
			t.Fatalf("PutBatch regions in send order = %s, want %s: the failed group first, again, and only then the next", got, want)
		}
		return
	}
}
