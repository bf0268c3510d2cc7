package sql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"just/internal/core"
	"just/internal/exec"
	"just/internal/geom"
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

// TestGroupByOverMemBudget: a GROUP BY folds its scan's batches as they
// arrive, so it succeeds over more rows than the per-query budget holds
// as long as its groups fit — while the same rows as a result set hit
// the budget.
func TestGroupByOverMemBudget(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE g (fid integer:primary key, geom point, k integer, name string)`)
	var vals []string
	for i := 0; i < 4000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, st_makePoint(%f, 39.9), %d, 'name-%d')", i, 116.0+float64(i)*0.0001, i%5, i))
	}
	mustExec(t, s, "INSERT INTO g VALUES "+strings.Join(vals, ", "))
	const budget = 64 << 10
	_, err := s.ExecuteContext(exec.WithQuery(context.Background(), exec.NewQuery(budget)), `SELECT k, name FROM g`)
	if !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("rows as a result set: err = %v, want ErrMemoryBudget", err)
	}
	for _, where := range []string{"", " WHERE geom WITHIN st_makeMBR(115, 39, 117, 41)"} {
		res, err := s.ExecuteContext(exec.WithQuery(context.Background(), exec.NewQuery(budget)),
			`SELECT k, count(*) AS n, max(name) AS hi FROM g`+where+` GROUP BY k`)
		if err != nil {
			t.Fatalf("GROUP BY%s: %v", where, err)
		}
		rows := res.Frame.Collect()
		res.Frame.Release()
		if len(rows) != 5 {
			t.Fatalf("GROUP BY%s: %d groups, want 5", where, len(rows))
		}
		for _, r := range rows {
			if r[1] != int64(800) {
				t.Fatalf("GROUP BY%s: group %v has %v rows, want 800", where, r[0], r[1])
			}
		}
	}
}

// TestAggregateSinkScansWhatASelectScans: folding a GROUP BY into the
// scan's emit changes what is allocated, not what is scanned. The
// aggregate and a SELECT of the same rows run the same scan tasks over
// the same pairs and touch the same blocks (read from disk or hit in the
// cache; how a touch splits between the two depends on which parallel
// tasks miss on a block at the same moment).
func TestAggregateSinkScansWhatASelectScans(t *testing.T) {
	e, err := core.Open(core.Config{Dir: t.TempDir(), Cluster: kv.ClusterOptions{Options: kv.Options{
		DisableWAL: true, Codec: "lz4", BlockCacheBytes: 256 << 10, MemtableBytes: 1 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := NewSession(e, "")
	mustExec(t, s, `CREATE TABLE orders (fid integer:primary key, time date, geom point:srid=4326, district string, amount double)`)
	rng := rand.New(rand.NewSource(1))
	rows := make([]exec.Row, 20000)
	for i := range rows {
		rows[i] = exec.Row{int64(i), rng.Int63n(30 * 24 * hourMS), geom.Point{Lng: 116 + rng.Float64()*0.6, Lat: 39.7 + rng.Float64()*0.5},
			fmt.Sprintf("d%d", rng.Intn(200)), rng.Float64() * 100}
	}
	if err := e.BulkInsert("", "orders", rows); err != nil {
		t.Fatal(err)
	}
	e.Cluster().Flush()
	e.Cluster().Compact()

	type counts struct{ tasks, pairs, touched, read int64 }
	measure := func(sql string) counts {
		m0 := e.Cluster().Metrics()
		mustExec(t, s, sql).Frame.Release()
		m1 := e.Cluster().Metrics()
		return counts{m1.ScanTasks - m0.ScanTasks, m1.ScanPairs - m0.ScanPairs,
			m1.BlocksRead + m1.BlockCacheHits - m0.BlocksRead - m0.BlockCacheHits, m1.BlocksRead - m0.BlocksRead}
	}
	var total counts
	for i := 0; i < 40; i++ {
		lng, lat, t0 := 116+rng.Float64()*0.5, 39.7+rng.Float64()*0.4, rng.Int63n(23*24*hourMS)
		where := fmt.Sprintf(" WHERE geom WITHIN st_makeMBR(%f, %f, %f, %f) AND time BETWEEN %d AND %d",
			lng, lat, lng+0.1, lat+0.09, t0, t0+7*24*hourMS)
		agg := measure(`SELECT district, count(*) AS n, sum(amount) AS total FROM orders` + where + ` GROUP BY district`)
		sel := measure(`SELECT district, amount FROM orders` + where)
		if agg.tasks != sel.tasks || agg.pairs != sel.pairs || agg.touched != sel.touched {
			t.Fatalf("statement %d: aggregate scanned %+v, select %+v", i, agg, sel)
		}
		total.tasks, total.pairs, total.touched, total.read = total.tasks+agg.tasks, total.pairs+agg.pairs, total.touched+agg.touched, total.read+agg.read
	}
	if total.pairs == 0 || total.read == 0 {
		t.Fatalf("the windows scanned too little to compare: %+v", total)
	}
	t.Logf("40 aggregates: %d scan tasks, %d pairs, %d blocks touched, %d read from disk", total.tasks, total.pairs, total.touched, total.read)
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
