package kv

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"just/internal/rpc"
)

// Scan-run tests: the router ships each run of ascending ranges that
// fall in one cached region as one OpScan, and must still deliver every
// key exactly once and in order when streams are torn and regions split
// or merge between (or inside) the ranges of a run.

// runTransport wraps the loopback fabric: it counts OpScan streams and,
// once armed, cuts the next one after `after` frames, applies `change`
// (the topology change landing mid-run) and fails the stream the way a
// torn connection does.
type runTransport struct {
	Transport
	scans atomic.Int64
	cuts  atomic.Int64

	mu     sync.Mutex
	after  int
	change func()
}

var errRunCut = errors.New("run cut")

func (rt *runTransport) arm(after int, change func()) {
	rt.mu.Lock()
	rt.after, rt.change = after, change
	rt.mu.Unlock()
}

func (rt *runTransport) Stream(ctx context.Context, addr string, op byte, payload []byte, onFrame func(op byte, payload []byte) (bool, error)) error {
	if op != rpc.OpScan {
		return rt.Transport.Stream(ctx, addr, op, payload, onFrame)
	}
	rt.scans.Add(1)
	rt.mu.Lock()
	change := rt.change
	after := rt.after
	rt.change = nil
	rt.mu.Unlock()
	if change == nil {
		return rt.Transport.Stream(ctx, addr, op, payload, onFrame)
	}
	n := 0
	err := rt.Transport.Stream(ctx, addr, op, payload, func(rop byte, p []byte) (bool, error) {
		if n == after {
			return false, errRunCut
		}
		n++
		return onFrame(rop, p)
	})
	if err != errRunCut {
		return err // the stream ended before the cut point
	}
	change()
	rt.cuts.Add(1)
	return &rpc.TransportError{Addr: addr, Err: errPeerDown}
}

const runKeys = 3000

func runKey(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }

// runRanges is one ascending run: the first range needs two frames, the
// second frame spans three ranges, and the last range is open-ended.
func runRanges() []KeyRange {
	return []KeyRange{
		{Start: runKey(100), End: runKey(700)},
		{Start: runKey(1000), End: runKey(1100)},
		{Start: runKey(1500), End: runKey(2500)},
		{Start: runKey(2900)},
	}
}

// startRunCluster runs one region node holding runKeys keys behind a
// router whose transport is a runTransport.
func startRunCluster(t *testing.T) (*Loopback, *runTransport, *Router) {
	t.Helper()
	lb := NewLoopback()
	testNode(t, lb, "s1", 1, NodeOptions{})
	rt := &runTransport{Transport: lb}
	r, err := OpenRouter(fastRetry(RouterOptions{Peers: []string{"s1"}, Transport: rt}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	var b WriteBatch
	for i := 0; i < runKeys; i++ {
		b.Put(runKey(i), []byte("v"))
	}
	if err := r.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	return lb, rt, r
}

// checkRun scans ranges through r and requires every key they hold,
// each exactly once, in key order.
func checkRun(t *testing.T, r *Router, ranges []KeyRange) {
	t.Helper()
	var want, got []string
	for i := 0; i < runKeys; i++ {
		for _, kr := range ranges {
			if kr.Contains(runKey(i)) {
				want = append(want, string(runKey(i)))
			}
		}
	}
	err := scanPairs(bg, r, ranges, func(k, v []byte) bool {
		got = append(got, string(k))
		return len(got) <= len(want) // a run re-delivering keys stops here
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("scan delivered %d keys, want %d in order, each once", len(got), len(want))
	}
}

// splitRegionAt splits the region holding key on s1 and refreshes r.
func splitRegionAt(t *testing.T, lb *Loopback, r *Router, key []byte, leftID, rightID uint64) {
	t.Helper()
	for _, info := range regionMap(t, lb, "s1").Regions {
		if (KeyRange{Start: info.Start, End: info.End}).Contains(key) {
			adminCall(t, lb, "s1", rpc.OpSplit, &rpc.SplitReq{
				Region: info.ID, Epoch: info.Epoch, SplitKey: key, LeftID: leftID, RightID: rightID,
			})
			if err := r.refresh(bg); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no region holds %q", key)
}

func TestRouterScanRunTasks(t *testing.T) {
	lb, _, r := startRunCluster(t)
	count := func(ranges []KeyRange) int { return len(r.scanTasks(ranges)) }
	if n := count(runRanges()); n != 1 {
		t.Fatalf("one ascending run in one region: %d tasks, want 1", n)
	}
	if n := count([]KeyRange{{}}); n != 1 {
		t.Fatalf("full scan: %d tasks, want 1", n)
	}
	// A range below its predecessor starts a new run, as does a change
	// of zone interval.
	desc := []KeyRange{{Start: runKey(500), End: runKey(600)}, {Start: runKey(100), End: runKey(200)}}
	if n := count(desc); n != 2 {
		t.Fatalf("descending ranges: %d tasks, want 2", n)
	}
	zoned := runRanges()
	zoned[2].Zoned, zoned[2].ZMax = true, 5
	if n := count(zoned); n != 3 {
		t.Fatalf("zone change mid-run: %d tasks, want 3", n)
	}
	// Two regions: a run is cut at the region boundary into one task per
	// region, each holding its side of the straddling range.
	splitRegionAt(t, lb, r, runKey(1050), 100, 101)
	tasks := r.scanTasks(runRanges())
	if len(tasks) != 2 || len(tasks[0].run) != 2 || len(tasks[1].run) != 3 {
		t.Fatalf("run over two regions: %d tasks %v, want runs of 2 and 3 ranges", len(tasks), tasks)
	}
	checkRun(t, r, runRanges())
}

// TestRouterScanRunOneOpScanPerRun: a run costs one scan task and one
// OpScan, and the node walks its ranges in one stream.
func TestRouterScanRunOneOpScanPerRun(t *testing.T) {
	_, rt, r := startRunCluster(t)
	before := r.Metrics().ScanTasks
	rt.scans.Store(0)
	checkRun(t, r, runRanges())
	if n := rt.scans.Load(); n != 1 {
		t.Fatalf("%d OpScans for one run, want 1", n)
	}
	if n := r.Metrics().ScanTasks - before; n != 1 {
		t.Fatalf("%d scan tasks for one run, want 1", n)
	}
}

// TestRouterScanRunStreamCut tears the run's stream twice after one
// frame: each retry resumes strictly after the last delivered key,
// dropping the ranges already served and cutting the one in progress.
func TestRouterScanRunStreamCut(t *testing.T) {
	lb := NewLoopback()
	testNode(t, lb, "s1", 1, NodeOptions{})
	ft := NewFaultTransport(lb, 1)
	r, err := OpenRouter(fastRetry(RouterOptions{Peers: []string{"s1"}, Transport: ft}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var b WriteBatch
	for i := 0; i < runKeys; i++ {
		b.Put(runKey(i), []byte("v"))
	}
	if err := r.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	ft.Add(TransportFaultRule{Op: rpc.OpScan, Prob: 1, Count: 2, AfterFrames: 1})
	checkRun(t, r, runRanges())
	if ft.Injected() != 2 {
		t.Fatalf("injected %d stream cuts, want 2", ft.Injected())
	}
}

// TestRouterScanRunSplitMidRun tears the run's stream after `after`
// frames and splits the region underneath before the retry, at keys
// inside the delivered part, inside the range in flight, between two
// ranges, inside a later range and past the last key.
func TestRouterScanRunSplitMidRun(t *testing.T) {
	for _, after := range []int{1, 2} {
		for _, at := range []int{300, 650, 800, 1050, 2000, 5000} {
			t.Run(fmt.Sprintf("after=%d/split=%d", after, at), func(t *testing.T) {
				lb, rt, r := startRunCluster(t)
				rt.arm(after, func() {
					adminCall(t, lb, "s1", rpc.OpSplit, &rpc.SplitReq{
						Region: 1, Epoch: 1, SplitKey: runKey(at), LeftID: 100, RightID: 101,
					})
				})
				checkRun(t, r, runRanges())
				if rt.cuts.Load() != 1 || r.Regions() != 2 {
					t.Fatalf("cuts = %d, regions = %d: the split did not land mid-run", rt.cuts.Load(), r.Regions())
				}
			})
		}
	}
}

// TestRouterScanRunMergeMidRun starts from two cached regions (two runs)
// and merges them while the first run is in flight.
func TestRouterScanRunMergeMidRun(t *testing.T) {
	lb, rt, r := startRunCluster(t)
	splitRegionAt(t, lb, r, runKey(1050), 100, 101)
	rt.arm(1, func() {
		adminCall(t, lb, "s1", rpc.OpMerge, &rpc.MergeReq{Left: 100, Right: 101, NewID: 200, Epoch: 3})
	})
	checkRun(t, r, runRanges())
	if rt.cuts.Load() != 1 || r.Regions() != 1 {
		t.Fatalf("cuts = %d, regions = %d: the merge did not land mid-run", rt.cuts.Load(), r.Regions())
	}
}

// TestRouterScanRunEarlyStopCancelsStream stops consuming a scan of six
// runs (one per region; the one-peer router serves them with one worker,
// inline) after a few rows, the LIMIT shape: the region node sees its
// stream canceled and no scan goroutine outlives the call.
func TestRouterScanRunEarlyStopCancelsStream(t *testing.T) {
	lb := NewLoopback()
	node := testNode(t, lb, "s1", 1, NodeOptions{})
	r, err := OpenRouter(fastRetry(RouterOptions{Peers: []string{"s1"}, Transport: lb}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var b WriteBatch
	for i := 0; i < 6*1200; i++ {
		b.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v"))
	}
	if err := r.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 6; i++ {
		splitRegionAt(t, lb, r, []byte(fmt.Sprintf("k%05d", i*1200)), uint64(100+2*i), uint64(101+2*i))
	}
	// Two ranges per region, each run needing several frames.
	var ranges []KeyRange
	for i := 0; i < 6; i++ {
		ranges = append(ranges,
			KeyRange{Start: []byte(fmt.Sprintf("k%05d", i*1200)), End: []byte(fmt.Sprintf("k%05d", i*1200+550))},
			KeyRange{Start: []byte(fmt.Sprintf("k%05d", i*1200+600)), End: []byte(fmt.Sprintf("k%05d", i*1200+1150))})
	}
	if n := len(r.scanTasks(ranges)); n != 6 {
		t.Fatalf("%d tasks, want one per region", n)
	}
	base := runtime.NumGoroutine()
	rows := 0
	err = scanPairs(bg, r, ranges, func(k, v []byte) bool {
		rows++
		return rows < 10
	})
	if err != nil {
		t.Fatalf("early-stopped scan: %v", err)
	}
	if rows != 10 {
		t.Fatalf("emit called %d times after returning false, want 10 calls", rows)
	}
	if node.Metrics().ScanCancels == 0 {
		t.Fatal("the region node never saw a canceled stream")
	}
	waitGoroutines(t, base)
}

// maintTransport runs maint once, inside the first OpScan stream, after
// the stream's first frame: with the loopback fabric the region node is
// then mid-run, holding its snapshot.
type maintTransport struct {
	Transport
	maint atomic.Pointer[func()]
}

func (mt *maintTransport) Stream(ctx context.Context, addr string, op byte, payload []byte, onFrame func(op byte, payload []byte) (bool, error)) error {
	if op != rpc.OpScan {
		return mt.Transport.Stream(ctx, addr, op, payload, onFrame)
	}
	maint := mt.maint.Swap(nil)
	if maint == nil {
		return mt.Transport.Stream(ctx, addr, op, payload, onFrame)
	}
	return mt.Transport.Stream(ctx, addr, op, payload, func(rop byte, p []byte) (bool, error) {
		if maint != nil {
			(*maint)()
			maint = nil
		}
		return onFrame(rop, p)
	})
}

// TestRouterScanRunExactlyOnceUnderMaintenance streams a run while the
// region rewrites keys, flushes and tier-merges underneath it, retiring
// tables the run's snapshot still reads: every key comes once, in order.
func TestRouterScanRunExactlyOnceUnderMaintenance(t *testing.T) {
	lb := NewLoopback()
	node := testNode(t, lb, "s1", 1, NodeOptions{})
	mt := &maintTransport{Transport: lb}
	r, err := OpenRouter(fastRetry(RouterOptions{Peers: []string{"s1"}, Transport: mt}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for lo := 0; lo < runKeys; lo += runKeys / 3 {
		var b WriteBatch
		for i := lo; i < lo+runKeys/3; i++ {
			b.Put(runKey(i), []byte("v"))
		}
		if err := r.ApplyCtx(bg, &b); err != nil {
			t.Fatal(err)
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	node.mu.Lock()
	reg := node.regions[1].r
	node.mu.Unlock()
	before := node.Metrics().Compactions
	tables := 0
	maint := func() {
		for i := 0; i < runKeys; i += 7 {
			if err := reg.Put(runKey(i), []byte("w")); err != nil {
				t.Error(err)
			}
		}
		if err := reg.flush(); err != nil {
			t.Error(err)
		}
		if err := reg.merge(true); err != nil {
			t.Error(err)
		}
		reg.mu.RLock()
		tables = len(reg.tables)
		reg.mu.RUnlock()
	}
	mt.maint.Store(&maint)
	checkRun(t, r, runRanges())
	if mt.maint.Load() != nil || node.Metrics().Compactions == before || tables >= 4 {
		t.Fatalf("maintenance did not land mid-run: %d compactions, %d tables after it", node.Metrics().Compactions-before, tables)
	}
}
