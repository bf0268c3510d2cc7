package sql

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"just/internal/core"
	"just/internal/exec"
	"just/internal/kv"
	"just/internal/rpc"
)

// lifecycleSession builds a session over a table with n point rows.
func lifecycleSession(t *testing.T, n int) *Session {
	t.Helper()
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE pts (fid integer:primary key, geom point, name string)`)
	for i := 0; i < n; i += 500 {
		var b strings.Builder
		for j := i; j < i+500 && j < n; j++ {
			fmt.Fprintf(&b, "INSERT INTO pts VALUES (%d, st_makePoint(%f, %f), 'n-%d');",
				j, 116.0+float64(j%1000)*0.0005, 39.0+float64(j/1000)*0.0005, j)
		}
		for _, stmt := range strings.Split(b.String(), ";") {
			if strings.TrimSpace(stmt) == "" {
				continue
			}
			mustExec(t, s, stmt)
		}
	}
	return s
}

func TestExecuteContextPreCanceled(t *testing.T) {
	s := lifecycleSession(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.ExecuteContext(ctx, `SELECT fid FROM pts`)
	if !errors.Is(err, exec.ErrQueryCanceled) {
		t.Fatalf("err = %v, want ErrQueryCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must unwrap to context.Canceled", err)
	}
}

func TestExecuteContextDeadlineTyped(t *testing.T) {
	s := lifecycleSession(t, 2000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err := s.ExecuteContext(ctx, `SELECT fid FROM pts WHERE st_distance(geom, st_makePoint(0, 0)) < 1000`)
	if !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, must unwrap to context.DeadlineExceeded", err)
	}
}

// TestQueryMemBudgetTyped attaches a tiny per-query budget and expects
// the typed budget error instead of an engine-wide OOM.
func TestQueryMemBudgetTyped(t *testing.T) {
	s := lifecycleSession(t, 2000)
	ctx := exec.WithQuery(context.Background(), exec.NewQuery(1024))
	_, err := s.ExecuteContext(ctx, `SELECT fid, geom, name FROM pts`)
	if !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	// A budget large enough for the result succeeds and reports usage.
	q := exec.NewQuery(64 << 20)
	res, err := s.ExecuteContext(exec.WithQuery(context.Background(), q), `SELECT fid FROM pts LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	res.Frame.Release()
	if q.MemPeak() == 0 {
		t.Fatal("query peak memory not tracked")
	}
}

// TestLimitPushdownPlan asserts LIMIT reaches the scan node so early
// termination can cancel region workers.
func TestLimitPushdownPlan(t *testing.T) {
	s := lifecycleSession(t, 10)
	res := mustExec(t, s, `EXPLAIN SELECT fid FROM pts LIMIT 5`)
	if !strings.Contains(res.Message, "limit=5") {
		t.Fatalf("plan missing pushed limit:\n%s", res.Message)
	}
	// LIMIT must not push through an aggregate.
	res = mustExec(t, s, `EXPLAIN SELECT count(fid) FROM pts LIMIT 5`)
	if strings.Contains(res.Message, "limit=5") {
		t.Fatalf("limit wrongly pushed through aggregate:\n%s", res.Message)
	}
}

// TestLimitStopsScanEarly proves a pushed-down LIMIT terminates the
// storage scan instead of materializing the whole table.
func TestLimitStopsScanEarly(t *testing.T) {
	s := lifecycleSession(t, 8000)
	eng := s.engine
	before := eng.Cluster().Metrics().ScanPairs
	res := mustExec(t, s, `SELECT fid FROM pts LIMIT 5`)
	if n := len(res.Frame.Collect()); n != 5 {
		t.Fatalf("rows = %d, want 5", n)
	}
	res.Frame.Release()
	scanned := eng.Cluster().Metrics().ScanPairs - before
	if scanned >= 8000 {
		t.Fatalf("LIMIT 5 scanned %d pairs — no early termination", scanned)
	}
	// Correctness unchanged: the same query without LIMIT sees all rows.
	res = mustExec(t, s, `SELECT fid FROM pts`)
	if n := len(res.Frame.Collect()); n != 8000 {
		t.Fatalf("full scan = %d rows, want 8000", n)
	}
	res.Frame.Release()
}

// TestLimitQueryReleasesGoroutines runs early-terminating LIMIT queries
// in a loop and checks the scan pipeline leaves no goroutines behind.
func TestLimitQueryReleasesGoroutines(t *testing.T) {
	s := lifecycleSession(t, 8000)
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		res := mustExec(t, s, `SELECT fid FROM pts LIMIT 3`)
		res.Frame.Release()
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: base=%d now=%d", base, runtime.NumGoroutine())
}

// TestViewSurvivesCreatorCancel pins the rebinding contract: a frame
// cached by CREATE VIEW under one query's context must stay readable
// after that query's context is canceled.
func TestViewSurvivesCreatorCancel(t *testing.T) {
	s := lifecycleSession(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := s.ExecuteContext(ctx, `CREATE VIEW v AS SELECT fid FROM pts`); err != nil {
		t.Fatal(err)
	}
	cancel() // creator's lifecycle ends
	res, err := s.Execute(`SELECT fid FROM v`)
	if err != nil {
		t.Fatalf("view query after creator cancel: %v", err)
	}
	if n := len(res.Frame.Collect()); n != 100 {
		t.Fatalf("view rows = %d, want 100", n)
	}
	res.Frame.Release()
}

// TestPointLookupDeadlinePropagates pins the statement deadline on the
// attribute-index point path: with the region server's get op slowed
// past the deadline, `WHERE fid = …` must give up with the typed
// deadline error at about the deadline instead of waiting the delay
// out (a context-free Get would wait and then succeed).
func TestPointLookupDeadlinePropagates(t *testing.T) {
	lb := kv.NewLoopback()
	node, err := kv.OpenRegionNode(t.TempDir(), kv.NodeOptions{NodeID: 1, Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	lb.Register("s1", node.Handler())
	ft := kv.NewFaultTransport(lb, 1)
	e, err := core.Open(core.Config{
		Dir:    t.TempDir(),
		Router: &kv.RouterOptions{Peers: []string{"s1"}, Transport: ft},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	s := NewSession(e, "")
	mustExec(t, s, `CREATE TABLE pts (fid integer:primary key, geom point, name string)`)
	mustExec(t, s, `INSERT INTO pts VALUES (7, st_makePoint(116.4, 39.9), 'seven')`)

	const delay, deadline = 2 * time.Second, 50 * time.Millisecond
	ft.Add(kv.TransportFaultRule{Op: rpc.OpGet, Prob: 1, Delay: delay})
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err = s.ExecuteContext(ctx, `SELECT name FROM pts WHERE fid = 7`)
	if !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("err = %v after %s, want ErrDeadlineExceeded", err, time.Since(start))
	}
	if took := time.Since(start); took >= delay {
		t.Fatalf("point lookup took %s: it waited out the %s delay instead of its %s deadline", took, delay, deadline)
	}

	ft.Clear()
	res := mustExec(t, s, `SELECT name FROM pts WHERE fid = 7`)
	defer res.Frame.Release()
	if rows := res.Frame.Collect(); len(rows) != 1 || rows[0][0] != "seven" {
		t.Fatalf("rows after clearing the fault = %v", rows)
	}
}
