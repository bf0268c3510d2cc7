package kv

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"just/internal/rpc"
)

// testNode opens a RegionNode on the loopback fabric at addr.
func testNode(t *testing.T, lb *Loopback, addr string, nodeID int, opts NodeOptions) *RegionNode {
	t.Helper()
	opts.NodeID = nodeID
	opts.Transport = lb
	n, err := OpenRegionNode(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("OpenRegionNode(%s): %v", addr, err)
	}
	t.Cleanup(func() { n.Close() })
	lb.Register(addr, n.Handler())
	return n
}

func adminCall(t *testing.T, lb *Loopback, addr string, op byte, req any) {
	t.Helper()
	if _, err := lb.Do(context.Background(), addr, op, rpc.MarshalAdmin(req)); err != nil {
		t.Fatalf("admin op %#02x on %s: %v", op, addr, err)
	}
}

// createRegion bootstraps region id covering (-inf,+inf) at epoch 1.
func createRegion(t *testing.T, lb *Loopback, addr string, id uint64, role byte, replicas []string) {
	t.Helper()
	adminCall(t, lb, addr, rpc.OpCreateRegion, &rpc.CreateRegionReq{
		ID: id, Epoch: 1, Role: role, Replicas: replicas,
	})
}

func nodePut(t *testing.T, lb *Loopback, addr string, region, epoch uint64, key, val string) error {
	t.Helper()
	var b WriteBatch
	b.Put([]byte(key), []byte(val))
	req := rpc.PutBatchReq{Region: region, Epoch: epoch, Payload: encodeBatchPayload(nil, b.muts)}
	_, err := lb.Do(context.Background(), addr, rpc.OpPutBatch, req.Append(nil))
	return err
}

func nodeGet(t *testing.T, lb *Loopback, addr string, region, epoch uint64, key string) (string, error) {
	t.Helper()
	req := rpc.GetReq{Region: region, Epoch: epoch, Key: []byte(key)}
	v, err := lb.Do(context.Background(), addr, rpc.OpGet, req.Append(nil))
	return string(v), err
}

func nodeScanAll(t *testing.T, lb *Loopback, addr string, region, epoch uint64) (map[string]string, error) {
	t.Helper()
	out := map[string]string{}
	req := rpc.ScanReq{Region: region, Epoch: epoch}
	err := lb.Stream(context.Background(), addr, rpc.OpScan, req.Append(nil),
		func(op byte, p []byte) (bool, error) {
			if op != rpc.OpScanBatch {
				return true, nil
			}
			var b rpc.ScanBatch
			if err := b.Decode(p); err != nil {
				return false, err
			}
			for i := range b.Keys {
				out[string(b.Keys[i])] = string(b.Vals[i])
			}
			return true, nil
		})
	return out, err
}

func regionMap(t *testing.T, lb *Loopback, addr string) rpc.RegionMapResp {
	t.Helper()
	p, err := lb.Do(context.Background(), addr, rpc.OpRegionMap, nil)
	if err != nil {
		t.Fatalf("region map on %s: %v", addr, err)
	}
	var resp rpc.RegionMapResp
	if err := rpc.UnmarshalAdmin(p, &resp); err != nil {
		t.Fatalf("decode region map: %v", err)
	}
	return resp
}

func TestRegionNodeBasicOps(t *testing.T) {
	lb := NewLoopback()
	testNode(t, lb, "n1", 1, NodeOptions{})
	createRegion(t, lb, "n1", 1, rpc.RolePrimary, nil)

	for i := 0; i < 100; i++ {
		if err := nodePut(t, lb, "n1", 1, 1, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if v, err := nodeGet(t, lb, "n1", 1, 1, "k042"); err != nil || v != "v42" {
		t.Fatalf("get k042 = %q, %v; want v42", v, err)
	}
	if _, err := nodeGet(t, lb, "n1", 1, 1, "missing"); err == nil {
		t.Fatal("get missing key: want error")
	} else if re, ok := err.(*rpc.RemoteError); !ok || re.Code != rpc.CodeNotFound {
		t.Fatalf("get missing key: %v, want CodeNotFound", err)
	}

	got, err := nodeScanAll(t, lb, "n1", 1, 1)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(got) != 100 || got["k007"] != "v7" {
		t.Fatalf("scan returned %d rows (k007=%q), want 100", len(got), got["k007"])
	}

	// MultiGet mixes hits and misses; misses come back nil.
	mreq := rpc.MultiGetReq{Region: 1, Epoch: 1, Keys: [][]byte{[]byte("k001"), []byte("nope"), []byte("k099")}}
	p, err := lb.Do(context.Background(), "n1", rpc.OpMultiGet, mreq.Append(nil))
	if err != nil {
		t.Fatalf("multiget: %v", err)
	}
	var vals rpc.ValuesResp
	if err := vals.Decode(p); err != nil {
		t.Fatalf("decode multiget: %v", err)
	}
	if len(vals.Vals) != 3 || string(vals.Vals[0]) != "v1" || vals.Vals[1] != nil || string(vals.Vals[2]) != "v99" {
		t.Fatalf("multiget vals = %q", vals.Vals)
	}
}

func TestRegionNodeStaleEpochRejected(t *testing.T) {
	lb := NewLoopback()
	testNode(t, lb, "n1", 1, NodeOptions{})
	createRegion(t, lb, "n1", 1, rpc.RolePrimary, nil)

	err := nodePut(t, lb, "n1", 1, 99, "k", "v") // wrong epoch
	re, ok := err.(*rpc.RemoteError)
	if !ok || re.Code != rpc.CodeStaleRegion {
		t.Fatalf("wrong-epoch put: %v, want CodeStaleRegion", err)
	}
	if _, err := nodeGet(t, lb, "n1", 7, 1, "k"); err == nil {
		t.Fatal("unknown-region get: want CodeStaleRegion")
	}
}

func TestRegionNodeShipAndReplica(t *testing.T) {
	lb := NewLoopback()
	testNode(t, lb, "n1", 1, NodeOptions{})
	testNode(t, lb, "n2", 2, NodeOptions{})
	createRegion(t, lb, "n1", 1, rpc.RolePrimary, []string{"n2"})
	createRegion(t, lb, "n2", 1, rpc.RoleReplica, nil)

	for i := 0; i < 50; i++ {
		if err := nodePut(t, lb, "n1", 1, 1, fmt.Sprintf("k%03d", i), "v"); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Every acknowledged write must already be on the replica.
	got, err := nodeScanAll(t, lb, "n2", 1, 1)
	if err != nil {
		t.Fatalf("replica scan: %v", err)
	}
	if len(got) != 50 {
		t.Fatalf("replica has %d rows, want 50", len(got))
	}
	// Writes to the replica role are rejected.
	err = nodePut(t, lb, "n2", 1, 1, "x", "y")
	if re, ok := err.(*rpc.RemoteError); !ok || re.Code != rpc.CodeStaleRegion {
		t.Fatalf("put to replica: %v, want CodeStaleRegion", err)
	}
}

func TestRegionNodeShipGapReseeds(t *testing.T) {
	lb := NewLoopback()
	testNode(t, lb, "n1", 1, NodeOptions{})
	n2 := testNode(t, lb, "n2", 2, NodeOptions{})
	createRegion(t, lb, "n1", 1, rpc.RolePrimary, []string{"n2"})
	createRegion(t, lb, "n2", 1, rpc.RoleReplica, nil)

	for i := 0; i < 20; i++ {
		if err := nodePut(t, lb, "n1", 1, 1, fmt.Sprintf("k%03d", i), "v"); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	// Simulate a replica restart: its in-memory ship seq resets to 0, so
	// the next shipped batch observes a gap and triggers a reseed.
	n2.mu.Lock()
	sr := n2.regions[1]
	n2.mu.Unlock()
	sr.wmu.Lock()
	sr.seq = 0
	sr.wmu.Unlock()

	if err := nodePut(t, lb, "n1", 1, 1, "k999", "v"); err != nil {
		t.Fatalf("put after replica reset: %v", err)
	}
	got, err := nodeScanAll(t, lb, "n2", 1, 1)
	if err != nil {
		t.Fatalf("replica scan: %v", err)
	}
	if len(got) != 21 {
		t.Fatalf("reseeded replica has %d rows, want 21", len(got))
	}
}

func TestRegionNodeDropsDeadReplica(t *testing.T) {
	lb := NewLoopback()
	testNode(t, lb, "n1", 1, NodeOptions{})
	testNode(t, lb, "n2", 2, NodeOptions{})
	createRegion(t, lb, "n1", 1, rpc.RolePrimary, []string{"n2"})
	createRegion(t, lb, "n2", 1, rpc.RoleReplica, nil)

	if err := nodePut(t, lb, "n1", 1, 1, "a", "1"); err != nil {
		t.Fatalf("put: %v", err)
	}
	lb.SetDown("n2", true)
	// The write still succeeds: the dead replica is dropped, not waited on.
	if err := nodePut(t, lb, "n1", 1, 1, "b", "2"); err != nil {
		t.Fatalf("put with dead replica: %v", err)
	}
	m := regionMap(t, lb, "n1")
	if len(m.Regions) != 1 || len(m.Regions[0].Replicas) != 0 {
		t.Fatalf("replica not dropped: %+v", m.Regions)
	}
}

func TestRegionNodeSplit(t *testing.T) {
	lb := NewLoopback()
	n1 := testNode(t, lb, "n1", 1, NodeOptions{
		Options:    Options{MemtableBytes: 8 << 10},
		SplitBytes: 32 << 10,
	})
	createRegion(t, lb, "n1", 1, rpc.RolePrimary, nil)

	want := map[string]string{}
	val := string(bytes.Repeat([]byte("v"), 256))
	// Ingest enough to trip the size threshold; epoch rotates under us,
	// so rediscover the routing from the region map as a router would.
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if err := putViaMap(lb, k, val); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		want[k] = val
	}
	m := regionMap(t, lb, "n1")
	if len(m.Regions) < 2 {
		t.Fatalf("no split happened: %d regions, DiskSize thresholds not tripped", len(m.Regions))
	}
	if got := n1.Metrics().RegionSplits; got == 0 {
		t.Fatal("RegionSplits metric not incremented")
	}
	// Every row must still be readable exactly once with correct content.
	got := map[string]string{}
	for _, r := range m.Regions {
		rows, err := nodeScanAll(t, lb, "n1", r.ID, r.Epoch)
		if err != nil {
			t.Fatalf("scan region %d: %v", r.ID, err)
		}
		for k, v := range rows {
			if _, dup := got[k]; dup {
				t.Fatalf("key %s present in two regions", k)
			}
			got[k] = v
		}
	}
	if len(got) != len(want) {
		t.Fatalf("after split: %d rows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("after split: %s = %q, want %q", k, got[k], v)
		}
	}

	// A churned source bigger than one copy chunk, read through a 16 KiB
	// cache that recycles its blocks, split on request: each daughter
	// holds exactly the model's keys on its side of mid.
	n2 := testNode(t, lb, "n2", 2, NodeOptions{Options: Options{MemtableBytes: 64 << 10, BlockCacheBytes: 16 << 10}})
	adminCall(t, lb, "n2", rpc.OpCreateRegion, &rpc.CreateRegionReq{ID: 1, Epoch: 1, Role: rpc.RolePrimary})
	model := fillChurned(t, lb, n2, "n2", 1, 1, "k", 10000)
	mid := "k-05000"
	commits := n2.Metrics().GroupCommits
	adminCall(t, lb, "n2", rpc.OpSplit, &rpc.SplitReq{Region: 1, Epoch: 1, SplitKey: []byte(mid), LeftID: 2, RightID: 3})
	chunks := 0
	for _, side := range []struct {
		id     uint64
		inSide func(k string) bool
	}{{2, func(k string) bool { return k < mid }}, {3, func(k string) bool { return k >= mid }}} {
		sub := map[string]string{}
		for k, v := range model {
			if side.inSide(k) {
				sub[k] = v
			}
		}
		if len(sub) <= reseedChunkMuts {
			t.Fatalf("daughter %d gets %d pairs, want more than one chunk's %d", side.id, len(sub), reseedChunkMuts)
		}
		checkRegionModel(t, lb, "n2", side.id, 2, sub)
		chunks += (len(sub) + reseedChunkMuts - 1) / reseedChunkMuts
	}
	if got := n2.Metrics().GroupCommits - commits; got != int64(chunks) {
		t.Fatalf("split applied %d batches, want %d chunks", got, chunks)
	}
}

// fillChurned writes count keys prefix-%05d to a region in batches of
// 500, then overwrites about a third of them and deletes about a tenth,
// flushing between rounds so that the region's pairs lie in several
// tables and its memtable. It returns the model of what stays live.
func fillChurned(t *testing.T, lb *Loopback, n *RegionNode, addr string, region, epoch uint64, prefix string, count int) map[string]string {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(count)))
	model := map[string]string{}
	apply := func(b *WriteBatch) {
		req := rpc.PutBatchReq{Region: region, Epoch: epoch, Payload: encodeBatchPayload(nil, b.muts)}
		if _, err := lb.Do(context.Background(), addr, rpc.OpPutBatch, req.Append(nil)); err != nil {
			t.Fatal(err)
		}
		b.Reset()
	}
	var b WriteBatch
	for round := 0; round < 3; round++ {
		for i := 0; i < count; i++ {
			k := fmt.Sprintf("%s-%05d", prefix, i)
			switch {
			case round == 0:
			case round == 1 && rng.Intn(3) == 0:
			case round == 2 && rng.Intn(10) == 0:
				b.Delete([]byte(k))
				delete(model, k)
				continue
			default:
				continue
			}
			v := fmt.Sprintf("%s@%d-%x", k, round, rng.Int63())
			b.Put([]byte(k), []byte(v))
			model[k] = v
			if b.Len() == 500 {
				apply(&b)
			}
		}
		if b.Len() > 0 {
			apply(&b)
		}
		if round < 2 {
			n.mu.Lock()
			sr := n.regions[region]
			n.mu.Unlock()
			if err := sr.r.flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return model
}

// checkRegionModel scans a region whole and compares it with model.
func checkRegionModel(t *testing.T, lb *Loopback, addr string, region, epoch uint64, model map[string]string) {
	t.Helper()
	got, err := nodeScanAll(t, lb, addr, region, epoch)
	if err != nil {
		t.Fatalf("scan region %d: %v", region, err)
	}
	if len(got) != len(model) {
		t.Fatalf("region %d holds %d pairs, want %d", region, len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("region %d: %s = %q, want %q", region, k, got[k], v)
		}
	}
}

// putViaMap routes one put through the current region map, like the
// router does: find the region containing the key, retry on stale.
func putViaMap(lb *Loopback, key, val string) error {
	for attempt := 0; attempt < 5; attempt++ {
		p, err := lb.Do(context.Background(), "n1", rpc.OpRegionMap, nil)
		if err != nil {
			return err
		}
		var m rpc.RegionMapResp
		if err := rpc.UnmarshalAdmin(p, &m); err != nil {
			return err
		}
		var target *rpc.RegionInfo
		for i := range m.Regions {
			kr := KeyRange{Start: m.Regions[i].Start, End: m.Regions[i].End}
			if kr.Contains([]byte(key)) {
				target = &m.Regions[i]
				break
			}
		}
		if target == nil {
			return fmt.Errorf("no region for %q", key)
		}
		var b WriteBatch
		b.Put([]byte(key), []byte(val))
		req := rpc.PutBatchReq{Region: target.ID, Epoch: target.Epoch, Payload: encodeBatchPayload(nil, b.muts)}
		_, err = lb.Do(context.Background(), "n1", rpc.OpPutBatch, req.Append(nil))
		if re, ok := err.(*rpc.RemoteError); ok && re.Code == rpc.CodeStaleRegion {
			continue // map rotated under us; refresh and retry
		}
		return err
	}
	return fmt.Errorf("put %q: still stale after retries", key)
}

func TestRegionNodeSplitForwardedToReplica(t *testing.T) {
	lb := NewLoopback()
	testNode(t, lb, "n1", 1, NodeOptions{
		Options:    Options{MemtableBytes: 8 << 10},
		SplitBytes: 32 << 10,
	})
	testNode(t, lb, "n2", 2, NodeOptions{Options: Options{MemtableBytes: 8 << 10}})
	createRegion(t, lb, "n1", 1, rpc.RolePrimary, []string{"n2"})
	createRegion(t, lb, "n2", 1, rpc.RoleReplica, nil)

	val := string(bytes.Repeat([]byte("v"), 256))
	for i := 0; i < 1000; i++ {
		if err := putViaMap(lb, fmt.Sprintf("key-%04d", i), val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	m1, m2 := regionMap(t, lb, "n1"), regionMap(t, lb, "n2")
	if len(m1.Regions) < 2 {
		t.Fatalf("primary did not split: %d regions", len(m1.Regions))
	}
	if len(m2.Regions) != len(m1.Regions) {
		t.Fatalf("replica topology diverged: primary %d regions, replica %d", len(m1.Regions), len(m2.Regions))
	}
	// The replica's copy of every daughter must hold the same rows.
	for _, r := range m1.Regions {
		prim, err := nodeScanAll(t, lb, "n1", r.ID, r.Epoch)
		if err != nil {
			t.Fatalf("primary scan %d: %v", r.ID, err)
		}
		rep, err := nodeScanAll(t, lb, "n2", r.ID, r.Epoch)
		if err != nil {
			t.Fatalf("replica scan %d: %v", r.ID, err)
		}
		if len(prim) != len(rep) {
			t.Fatalf("region %d: primary %d rows, replica %d", r.ID, len(prim), len(rep))
		}
	}
}

func TestRegionNodePromoteAndRetire(t *testing.T) {
	lb := NewLoopback()
	testNode(t, lb, "n1", 1, NodeOptions{})
	testNode(t, lb, "n2", 2, NodeOptions{})
	createRegion(t, lb, "n1", 1, rpc.RolePrimary, []string{"n2"})
	createRegion(t, lb, "n2", 1, rpc.RoleReplica, nil)

	if err := nodePut(t, lb, "n1", 1, 1, "a", "1"); err != nil {
		t.Fatalf("put: %v", err)
	}
	// Promote the replica to primary at epoch 2 (a failover or move).
	adminCall(t, lb, "n2", rpc.OpPromote, &rpc.PromoteReq{Region: 1, NewEpoch: 2})
	if err := nodePut(t, lb, "n2", 1, 2, "b", "2"); err != nil {
		t.Fatalf("put to promoted: %v", err)
	}
	if v, err := nodeGet(t, lb, "n2", 1, 2, "a"); err != nil || v != "1" {
		t.Fatalf("promoted node missing replicated row: %q, %v", v, err)
	}
	// Re-promoting at a non-advancing epoch must be rejected.
	_, err := lb.Do(context.Background(), "n2", rpc.OpPromote,
		rpc.MarshalAdmin(&rpc.PromoteReq{Region: 1, NewEpoch: 2}))
	if re, ok := err.(*rpc.RemoteError); !ok || re.Code != rpc.CodeStaleRegion {
		t.Fatalf("stale promote: %v, want CodeStaleRegion", err)
	}
	// Retire the old primary's copy; its slot becomes stale.
	adminCall(t, lb, "n1", rpc.OpRetire, &rpc.RetireReq{Region: 1})
	if _, err := nodeGet(t, lb, "n1", 1, 1, "a"); err == nil {
		t.Fatal("retired region still serving")
	}
	if got := regionMap(t, lb, "n1"); len(got.Regions) != 0 {
		t.Fatalf("retired region still in map: %+v", got.Regions)
	}
}

func TestRegionNodeMerge(t *testing.T) {
	lb := NewLoopback()
	testNode(t, lb, "n1", 1, NodeOptions{})
	adminCall(t, lb, "n1", rpc.OpCreateRegion, &rpc.CreateRegionReq{
		ID: 1, Epoch: 1, End: []byte("m"), Role: rpc.RolePrimary,
	})
	adminCall(t, lb, "n1", rpc.OpCreateRegion, &rpc.CreateRegionReq{
		ID: 2, Epoch: 1, Start: []byte("m"), Role: rpc.RolePrimary,
	})
	if err := nodePut(t, lb, "n1", 1, 1, "apple", "1"); err != nil {
		t.Fatalf("put left: %v", err)
	}
	if err := nodePut(t, lb, "n1", 2, 1, "zebra", "2"); err != nil {
		t.Fatalf("put right: %v", err)
	}
	adminCall(t, lb, "n1", rpc.OpMerge, &rpc.MergeReq{Left: 1, Right: 2, NewID: 9, Epoch: 2})
	got, err := nodeScanAll(t, lb, "n1", 9, 2)
	if err != nil {
		t.Fatalf("scan merged: %v", err)
	}
	if len(got) != 2 || got["apple"] != "1" || got["zebra"] != "2" {
		t.Fatalf("merged rows = %v", got)
	}
	m := regionMap(t, lb, "n1")
	if len(m.Regions) != 1 || m.Regions[0].ID != 9 {
		t.Fatalf("merge left topology: %+v", m.Regions)
	}
	// Non-adjacent merge is rejected.
	_, err = lb.Do(context.Background(), "n1", rpc.OpMerge,
		rpc.MarshalAdmin(&rpc.MergeReq{Left: 9, Right: 9, NewID: 10, Epoch: 3}))
	if err == nil {
		t.Fatal("self-merge: want error")
	}

	// Two churned sources, each bigger than one copy chunk, read through
	// a 16 KiB cache that recycles its blocks: the merged region holds
	// exactly the union of their models.
	n2 := testNode(t, lb, "n2", 2, NodeOptions{Options: Options{MemtableBytes: 64 << 10, BlockCacheBytes: 16 << 10}})
	adminCall(t, lb, "n2", rpc.OpCreateRegion, &rpc.CreateRegionReq{ID: 1, Epoch: 1, End: []byte("m"), Role: rpc.RolePrimary})
	adminCall(t, lb, "n2", rpc.OpCreateRegion, &rpc.CreateRegionReq{ID: 2, Epoch: 1, Start: []byte("m"), Role: rpc.RolePrimary})
	model := fillChurned(t, lb, n2, "n2", 1, 1, "a", 6000)
	right := fillChurned(t, lb, n2, "n2", 2, 1, "x", 7000)
	chunks := 0
	for _, src := range []map[string]string{model, right} {
		if len(src) <= reseedChunkMuts {
			t.Fatalf("a source holds %d pairs, want more than one chunk's %d", len(src), reseedChunkMuts)
		}
		chunks += (len(src) + reseedChunkMuts - 1) / reseedChunkMuts
	}
	maps.Copy(model, right)
	commits := n2.Metrics().GroupCommits
	adminCall(t, lb, "n2", rpc.OpMerge, &rpc.MergeReq{Left: 1, Right: 2, NewID: 9, Epoch: 2})
	checkRegionModel(t, lb, "n2", 9, 2, model)
	if got := n2.Metrics().GroupCommits - commits; got != int64(chunks) {
		t.Fatalf("merge applied %d batches, want %d chunks", got, chunks)
	}
}

func TestRegionNodeRestartKeepsTopologyAndData(t *testing.T) {
	lb := NewLoopback()
	dir := t.TempDir()
	opts := NodeOptions{NodeID: 1, Transport: lb}
	n, err := OpenRegionNode(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	lb.Register("n1", n.Handler())
	adminCall(t, lb, "n1", rpc.OpCreateRegion, &rpc.CreateRegionReq{
		ID: 3, Epoch: 5, Start: []byte("a"), End: []byte("q"), Role: rpc.RolePrimary,
	})
	if err := nodePut(t, lb, "n1", 3, 5, "hello", "world"); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	n2, err := OpenRegionNode(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer n2.Close()
	lb.Register("n1", n2.Handler())
	m := regionMap(t, lb, "n1")
	if len(m.Regions) != 1 {
		t.Fatalf("reopened node has %d regions, want 1", len(m.Regions))
	}
	r := m.Regions[0]
	if r.ID != 3 || r.Epoch != 5 || string(r.Start) != "a" || string(r.End) != "q" {
		t.Fatalf("reopened region shape: %+v", r)
	}
	if v, err := nodeGet(t, lb, "n1", 3, 5, "hello"); err != nil || v != "world" {
		t.Fatalf("reopened get = %q, %v", v, err)
	}
}

func TestFaultTransportCutsStreamMidScan(t *testing.T) {
	lb := NewLoopback()
	testNode(t, lb, "n1", 1, NodeOptions{})
	createRegion(t, lb, "n1", 1, rpc.RolePrimary, nil)
	for i := 0; i < 2000; i++ {
		if err := nodePut(t, lb, "n1", 1, 1, fmt.Sprintf("k%05d", i), "v"); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	ft := NewFaultTransport(lb, 1)
	ft.Add(TransportFaultRule{Op: rpc.OpScan, Prob: 1, Count: 1, AfterFrames: 1})
	req := rpc.ScanReq{Region: 1, Epoch: 1}
	frames := 0
	err := ft.Stream(context.Background(), "n1", rpc.OpScan, req.Append(nil),
		func(op byte, p []byte) (bool, error) {
			frames++
			return true, nil
		})
	if !rpc.IsTransport(err) {
		t.Fatalf("cut stream: err = %v, want transport error", err)
	}
	if frames != 1 {
		t.Fatalf("frames before cut = %d, want 1", frames)
	}
	if ft.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", ft.Injected())
	}
	// The rule is spent: the retry goes through whole.
	err = ft.Stream(context.Background(), "n1", rpc.OpScan, req.Append(nil),
		func(op byte, p []byte) (bool, error) { return true, nil })
	if err != nil {
		t.Fatalf("retry scan: %v", err)
	}
}
