package kv

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"just/internal/replica"
)

// replOpts builds a replicated test cluster: three regions (split at
// "g" and "p") over `servers` simulated region servers with `rf`
// replicas per region. A small memtable keeps background flushes in
// play during the chaos tests.
func replOpts(servers, rf int) ClusterOptions {
	return ClusterOptions{
		Options:     Options{MemtableBytes: 64 << 10},
		Servers:     servers,
		SplitPoints: [][]byte{[]byte("g"), []byte("p")},
		Replication: rf,
	}
}

// spreadKey maps i onto one of the three regions round-robin.
func spreadKey(i int) []byte {
	return []byte(fmt.Sprintf("%c-key-%05d", "ahq"[i%3], i))
}

func mustOpenRepl(t testing.TB, servers, rf int) *Cluster {
	t.Helper()
	c, err := OpenCluster(t.TempDir(), replOpts(servers, rf))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestReplicatedConvergence(t *testing.T) {
	c := mustOpenRepl(t, 3, 1)
	defer c.Close()
	var b WriteBatch
	for i := 0; i < 300; i++ {
		b.Put(spreadKey(i), []byte(fmt.Sprintf("v-%d", i)))
		if b.Len() >= 50 {
			if err := c.ApplyCtx(bg, &b); err != nil {
				t.Fatal(err)
			}
			b.Reset()
		}
	}
	if err := c.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncReplicas(); err != nil {
		t.Fatal(err)
	}
	for _, st := range c.ReplicationState() {
		if len(st.Nodes) != 2 {
			t.Fatalf("region %d: %d nodes, want 2", st.Region, len(st.Nodes))
		}
		if st.Committed == 0 {
			t.Fatalf("region %d: nothing committed", st.Region)
		}
		for _, n := range st.Nodes {
			if n.Lag != 0 {
				t.Fatalf("region %d server %d: lag %d after SyncReplicas", st.Region, n.Server, n.Lag)
			}
		}
	}
	m := c.Metrics()
	if m.ShippedBatches == 0 || m.ShippedBytes == 0 || m.ReplicaApplies == 0 {
		t.Fatalf("replication counters not advancing: %+v", m)
	}
	if m.Failovers != 0 {
		t.Fatalf("unexpected failovers: %d", m.Failovers)
	}
}

func TestReplicationOptionValidation(t *testing.T) {
	if _, err := OpenCluster(t.TempDir(), ClusterOptions{Servers: 2, Replication: 2}); err == nil {
		t.Fatal("Replication >= Servers accepted")
	}
	if _, err := OpenCluster(t.TempDir(), ClusterOptions{Servers: 3, Replication: 1, MaxRegionBytes: 1 << 20}); err == nil {
		t.Fatal("Replication with MaxRegionBytes accepted")
	}
}

// TestFailoverReads kills a server and checks every key is still
// answerable through replica reads, without promoting a new leader.
func TestFailoverReads(t *testing.T) {
	c := mustOpenRepl(t, 3, 1)
	defer c.Close()
	for i := 0; i < 120; i++ {
		if err := c.PutCtx(bg, spreadKey(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.KillServer(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		v, err := c.GetCtx(bg, spreadKey(i))
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("key %d after kill: %q, %v", i, v, err)
		}
	}
	got := 0
	if err := ScanRange(bg, c, KeyRange{}, func(k, v []byte) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != 120 {
		t.Fatalf("scan after kill saw %d rows, want 120", got)
	}
	m := c.Metrics()
	if m.FailoverReads == 0 {
		t.Fatal("no failover reads recorded")
	}
	if m.Failovers != 0 {
		t.Fatalf("reads should not promote; failovers = %d", m.Failovers)
	}
}

// TestKillServerMidScan kills a server while a scan is emitting rows;
// regions not yet scanned fail over to replicas and the scan still
// returns every row.
func TestKillServerMidScan(t *testing.T) {
	c := mustOpenRepl(t, 3, 1)
	defer c.Close()
	for i := 0; i < 150; i++ {
		if err := c.PutCtx(bg, spreadKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	got, killed := 0, false
	err := ScanRange(bg, c, KeyRange{}, func(k, v []byte) bool {
		got++
		if got == 10 && !killed {
			killed = true
			// Server 2 leads the last region ("p".."), which the scan
			// has not reached yet.
			if err := c.KillServer(2); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 150 {
		t.Fatalf("mid-scan kill: saw %d rows, want 150", got)
	}
	if m := c.Metrics(); m.FailoverReads == 0 {
		t.Fatal("expected the tail region to be scanned via a replica")
	}
}

// TestKillServerMidIngest runs concurrent writers while a server dies
// and comes back: every acknowledged write must remain readable, the
// killed leader's regions must promote, and the revived server must
// catch up to zero lag.
func TestKillServerMidIngest(t *testing.T) {
	c := mustOpenRepl(t, 3, 1)
	defer c.Close()

	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	killGate := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b WriteBatch
			for i := 0; i < perWriter; i++ {
				n := w*perWriter + i
				b.Put(spreadKey(n), []byte(fmt.Sprintf("v-%d", n)))
				if b.Len() >= 20 {
					if err := c.ApplyCtx(bg, &b); err != nil {
						t.Error(err)
						return
					}
					b.Reset()
				}
				if w == 0 && i == perWriter/4 {
					close(killGate)
				}
			}
			if err := c.ApplyCtx(bg, &b); err != nil {
				t.Error(err)
			}
		}(w)
	}
	<-killGate
	if err := c.KillServer(1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every acknowledged write is readable while server 1 is still down.
	for n := 0; n < writers*perWriter; n++ {
		v, err := c.GetCtx(bg, spreadKey(n))
		if err != nil || string(v) != fmt.Sprintf("v-%d", n) {
			t.Fatalf("key %d after mid-ingest kill: %q, %v", n, v, err)
		}
	}
	m := c.Metrics()
	if m.Failovers == 0 {
		t.Fatal("killing a leader mid-ingest should have promoted a replica")
	}

	// Revive: the returning server drains the retained log back to lag 0.
	if err := c.ReviveServer(1); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncReplicas(); err != nil {
		t.Fatal(err)
	}
	for _, st := range c.ReplicationState() {
		for _, n := range st.Nodes {
			if n.Lag != 0 {
				t.Fatalf("region %d server %d: lag %d after revive+sync", st.Region, n.Server, n.Lag)
			}
		}
	}
}

// TestReviveCatchUpServes kills a server, keeps writing, revives it,
// then kills the *other* copy of a region — the revived node must serve
// reads that include writes it was down for.
func TestReviveCatchUpServes(t *testing.T) {
	c := mustOpenRepl(t, 3, 1)
	defer c.Close()
	put := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := c.PutCtx(bg, spreadKey(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 90)
	// Server 1 hosts region 1's leader and region 0's replica.
	if err := c.KillServer(1); err != nil {
		t.Fatal(err)
	}
	put(90, 180) // region-1 writes promote to the replica on server 2
	if m := c.Metrics(); m.Failovers == 0 {
		t.Fatal("expected a promotion while server 1 was down")
	}
	if err := c.ReviveServer(1); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncReplicas(); err != nil {
		t.Fatal(err)
	}
	// Server 2 now leads region 1 (promoted) and region 2. Kill it: the
	// demoted-and-caught-up node on server 1 must serve region 1,
	// including the writes made while server 1 was dead.
	if err := c.KillServer(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 180; i++ {
		v, err := c.GetCtx(bg, spreadKey(i))
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("key %d served by revived node: %q, %v", i, v, err)
		}
	}
}

// TestDoubleFailureRF2 takes two of three servers down under
// replication factor 2: the surviving server holds a copy of every
// region and keeps both reads and writes available; losing the third
// server makes the cluster unavailable until a revive.
func TestDoubleFailureRF2(t *testing.T) {
	c := mustOpenRepl(t, 3, 2)
	defer c.Close()
	for i := 0; i < 90; i++ {
		if err := c.PutCtx(bg, spreadKey(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.KillServer(0); err != nil {
		t.Fatal(err)
	}
	if err := c.KillServer(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		v, err := c.GetCtx(bg, spreadKey(i))
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("key %d after double failure: %q, %v", i, v, err)
		}
	}
	for i := 90; i < 120; i++ {
		if err := c.PutCtx(bg, spreadKey(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatalf("write after double failure: %v", err)
		}
	}
	if err := c.KillServer(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetCtx(bg, spreadKey(0)); err != ErrUnavailable {
		t.Fatalf("all servers down: err = %v, want ErrUnavailable", err)
	}
	if err := c.PutCtx(bg, []byte("a-x"), []byte("x")); err != ErrUnavailable {
		t.Fatalf("write with all servers down: err = %v, want ErrUnavailable", err)
	}
	if err := c.ReviveServer(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		v, err := c.GetCtx(bg, spreadKey(i))
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("key %d after partial revive: %q, %v", i, v, err)
		}
	}
}

// TestUnreplicatedKillUnavailable: with replication off, a server
// failure makes its regions unavailable (and nothing else).
func TestUnreplicatedKillUnavailable(t *testing.T) {
	c := mustOpenRepl(t, 2, 0)
	defer c.Close()
	// Regions 0 and 2 live on server 0; region 1 on server 1.
	for _, k := range []string{"a-1", "h-1", "q-1"} {
		if err := c.PutCtx(bg, []byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.KillServer(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetCtx(bg, []byte("a-1")); err != ErrUnavailable {
		t.Fatalf("get on killed server: %v, want ErrUnavailable", err)
	}
	if err := c.PutCtx(bg, []byte("q-2"), []byte("v")); err != ErrUnavailable {
		t.Fatalf("put on killed server: %v, want ErrUnavailable", err)
	}
	if v, err := c.GetCtx(bg, []byte("h-1")); err != nil || string(v) != "v" {
		t.Fatalf("get on surviving server: %q, %v", v, err)
	}
	if err := ScanRange(bg, c, KeyRange{}, func(k, v []byte) bool { return true }); err != ErrUnavailable {
		t.Fatalf("scan spanning killed server: %v, want ErrUnavailable", err)
	}
	if err := c.ReviveServer(0); err != nil {
		t.Fatal(err)
	}
	if v, err := c.GetCtx(bg, []byte("a-1")); err != nil || string(v) != "v" {
		t.Fatalf("get after revive: %q, %v", v, err)
	}
}

// TestServerStates sanity-checks the admin topology snapshot.
func TestServerStates(t *testing.T) {
	c := mustOpenRepl(t, 3, 1)
	defer c.Close()
	if err := c.KillServer(2); err != nil {
		t.Fatal(err)
	}
	states := c.ServerStates()
	if len(states) != 3 {
		t.Fatalf("%d servers, want 3", len(states))
	}
	leaders, replicas := 0, 0
	for _, s := range states {
		leaders += s.Leaders
		replicas += s.Replicas
		if s.Down != (s.ID == 2) {
			t.Fatalf("server %d down = %v", s.ID, s.Down)
		}
	}
	if leaders != 3 || replicas != 3 {
		t.Fatalf("leaders=%d replicas=%d, want 3/3", leaders, replicas)
	}
}

// BenchmarkReplicatedIngest measures group-commit ingest throughput at
// replication factors 0, 1 and 2 (three servers, batches of 100), the
// EXPERIMENTS.md replication-cost experiment.
func BenchmarkReplicatedIngest(b *testing.B) {
	for _, rf := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("rf=%d", rf), func(b *testing.B) {
			c, err := OpenCluster(b.TempDir(), ClusterOptions{
				Options:     Options{MemtableBytes: 8 << 20},
				Servers:     3,
				SplitPoints: [][]byte{[]byte("g"), []byte("p")},
				Replication: rf,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			val := make([]byte, 100)
			b.ResetTimer()
			var batch WriteBatch
			for i := 0; i < b.N; i++ {
				batch.Put(spreadKey(i), val)
				if batch.Len() == 100 {
					if err := c.ApplyCtx(bg, &batch); err != nil {
						b.Fatal(err)
					}
					batch.Reset()
				}
			}
			if batch.Len() > 0 {
				if err := c.ApplyCtx(bg, &batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.SyncReplicas(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
		})
	}
}

// BenchmarkFailover measures write-path failover latency: each
// iteration kills the current leader's server and times the next write,
// which must promote a caught-up replica before acknowledging.
func BenchmarkFailover(b *testing.B) {
	c, err := OpenCluster(b.TempDir(), ClusterOptions{
		Options:     Options{MemtableBytes: 8 << 20},
		Servers:     3,
		SplitPoints: [][]byte{[]byte("g"), []byte("p")},
		Replication: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.PutCtx(bg, []byte("a-seed"), []byte("v")); err != nil {
		b.Fatal(err)
	}
	leaderOf := func() int {
		for _, st := range c.ReplicationState() {
			if st.Region == 0 {
				for _, n := range st.Nodes {
					if n.Role == "leader" {
						return n.Server
					}
				}
			}
		}
		b.Fatal("no leader for region 0")
		return -1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lead := leaderOf()
		if err := c.SyncReplicas(); err != nil {
			b.Fatal(err)
		}
		if err := c.KillServer(lead); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := c.PutCtx(bg, []byte(fmt.Sprintf("a-%06d", i)), []byte("v")); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := c.ReviveServer(lead); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// TestCloseDrainsReplicaShipping: Close must let in-flight replica
// appliers finish before tearing regions down — every acknowledged
// write lands in the replica's own store even when the shipping channel
// is slow. The replica directory is inspected directly after close.
func TestCloseDrainsReplicaShipping(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCluster(dir, replOpts(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	c.SetShipFault(func(sub string, env *replica.Envelope) error {
		time.Sleep(200 * time.Microsecond) // slow channel: Close finds lag to drain
		return nil
	})
	const n = 120
	for i := 0; i < n; i++ {
		if err := c.PutCtx(bg, spreadKey(i*3), []byte(fmt.Sprintf("v-%d", i))); err != nil { // region 0 only
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := openRegion(0, filepath.Join(dir, "region-0000-r1"), Options{}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < n; i++ {
		v, err := r.Get(spreadKey(i * 3))
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("replica store missing key %d after Close: %q, %v", i, v, err)
		}
	}
}

// TestCloseDrainsFlusher: a region Close waits for frozen memtables to
// reach disk instead of abandoning the flush queue.
func TestCloseDrainsFlusher(t *testing.T) {
	dir := t.TempDir()
	r, err := openRegion(0, dir, Options{MemtableBytes: 4 << 10}.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 512)
	for i := 0; i < 64; i++ { // ~32 KiB: several 4 KiB memtable freezes
		if err := r.Put([]byte(fmt.Sprintf("k-%03d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(r.imm); got != 0 {
		t.Fatalf("%d frozen memtables abandoned by Close", got)
	}
	ssts, _ := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	if len(ssts) == 0 {
		t.Fatal("Close flushed nothing to disk")
	}
}
