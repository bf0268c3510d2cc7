package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"just/internal/core"
	"just/internal/exec"
	"just/internal/geom"
	"just/internal/kv"
	"just/internal/sql"
)

// loadPoints bulk-loads n point rows into a fresh table via the table
// layer (per-statement INSERTs would dominate the test's runtime).
func loadPoints(t *testing.T, eng *core.Engine, user string, n int) {
	t.Helper()
	sess := sql.NewSession(eng, user)
	if _, err := sess.Execute(`CREATE TABLE big (fid integer:primary key, geom point, name string)`); err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.OpenTable(user, "big")
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 5000
	for i := 0; i < n; i += chunk {
		rows := make([]exec.Row, 0, chunk)
		for j := i; j < i+chunk && j < n; j++ {
			rows = append(rows, exec.Row{
				int64(j),
				geom.Point{Lng: 116.0 + float64(j%1000)*0.0005, Lat: 39.0 + float64(j/1000)*0.0005},
				fmt.Sprintf("name-%d", j),
			})
		}
		if err := tbl.InsertBatchCtx(context.Background(), rows); err != nil {
			t.Fatal(err)
		}
	}
}

// slowSQL scans the whole table and evaluates a residual predicate per
// row that never matches, so the query is storage-bound and returns no
// rows.
const slowSQL = `SELECT fid FROM big WHERE st_distance(geom, st_makePoint(116.0, 39.0)) < -1.0`

// postSQL issues a query and returns the HTTP status, the folded
// response body and the response headers.
func postSQL(t *testing.T, url, user, sqlText string, hdr map[string]string) (int, streamResult, http.Header) {
	t.Helper()
	body, _ := json.Marshal(sqlRequest{User: user, SQL: sqlText})
	req, err := http.NewRequest(http.MethodPost, url+"/api/v1/sql", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, readStream(t, resp.Body), resp.Header
}

func metricInt(t *testing.T, url, name string) int64 {
	t.Helper()
	m := getJSON(t, url+"/api/v1/metrics")
	v, ok := m[name].(float64)
	if !ok {
		t.Fatalf("metric %q missing: %v", name, m[name])
	}
	return int64(v)
}

func TestQueryLifecycle(t *testing.T) {
	ts, s := newTestServer(t, Options{
		MaxConcurrentQueries: 1,
		MaxQueuedQueries:     1,
		SlowQueryThreshold:   time.Minute,
	})
	// Big enough that a full scan takes several hundred ms: the
	// admission subtests depend on the blocker holding its run slot far
	// longer than request scheduling jitter under CPU saturation.
	loadPoints(t, s.engine, "u1", 400000)

	t.Run("Deadline", func(t *testing.T) {
		// The undeadlined baseline and the deadlined query alternate over
		// three rounds, and the fastest of each is compared, so a burst of
		// load from a sibling package cannot land on one side only.
		var baseline, elapsed time.Duration
		for round := 0; round < 3; round++ {
			t0 := time.Now()
			status, res, _ := postSQL(t, ts.URL, "u1", slowSQL, nil)
			if d := time.Since(t0); round == 0 || d < baseline {
				baseline = d
			}
			if status != http.StatusOK || res.Error != "" {
				t.Fatalf("baseline query failed: %d %+v", status, res)
			}
			t0 = time.Now()
			status, res, _ = postSQL(t, ts.URL, "u1", slowSQL, map[string]string{"X-JUST-Timeout": "50ms"})
			if d := time.Since(t0); round == 0 || d < elapsed {
				elapsed = d
			}
			if status != http.StatusUnprocessableEntity {
				t.Fatalf("status = %d, want 422", status)
			}
			if res.Code != "deadline_exceeded" {
				t.Fatalf("code = %q (%+v), want deadline_exceeded", res.Code, res)
			}
		}
		t.Logf("fastest undeadlined scan: %s, fastest deadlined: %s", baseline, elapsed)
		if elapsed >= baseline {
			t.Fatalf("deadlined query took %s, not faster than undeadlined %s", elapsed, baseline)
		}
		if baseline > 300*time.Millisecond && elapsed > baseline/2 {
			t.Fatalf("deadlined query took %s, want well under %s", elapsed, baseline)
		}
		if metricInt(t, ts.URL, "queries_deadline_exceeded") == 0 {
			t.Fatal("queries_deadline_exceeded not incremented")
		}
	})

	t.Run("AdmissionShed", func(t *testing.T) {
		shedBefore := metricInt(t, ts.URL, "queries_shed")
		var mu sync.Mutex
		okCount := 0
		var wg sync.WaitGroup
		// One blocker holds the single run slot; one waiter fills the
		// one-deep queue; further queries must be shed with 429.
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, res, _ := postSQL(t, ts.URL, "u1", slowSQL, nil)
				if status == http.StatusOK && res.Error == "" {
					mu.Lock()
					okCount++
					mu.Unlock()
				}
			}()
		}
		// Wait until the blocker is running and the queue is occupied.
		deadline := time.Now().Add(5 * time.Second)
		for metricInt(t, ts.URL, "queries_active") < 1 || metricInt(t, ts.URL, "queries_queued") < 1 {
			if time.Now().After(deadline) {
				t.Fatal("blocker/waiter never showed up")
			}
			time.Sleep(time.Millisecond)
		}
		status, res, hdr := postSQL(t, ts.URL, "u1", `SELECT fid FROM big LIMIT 1`, nil)
		if status != http.StatusTooManyRequests {
			t.Fatalf("status = %d (%+v), want 429", status, res)
		}
		if res.Code != "queue_full" {
			t.Fatalf("code = %q, want queue_full", res.Code)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("429 response missing Retry-After")
		}
		wg.Wait()
		if okCount != 2 {
			t.Fatalf("admitted queries completed %d times, want exactly 2", okCount)
		}
		if got := metricInt(t, ts.URL, "queries_shed"); got <= shedBefore {
			t.Fatalf("queries_shed = %d, want > %d", got, shedBefore)
		}
	})

	t.Run("QueueTimeout", func(t *testing.T) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // blocker
			defer wg.Done()
			postSQL(t, ts.URL, "u1", slowSQL, nil)
		}()
		deadline := time.Now().Add(5 * time.Second)
		for metricInt(t, ts.URL, "queries_active") < 1 {
			if time.Now().After(deadline) {
				t.Fatal("blocker never showed up")
			}
			time.Sleep(time.Millisecond)
		}
		// The waiter's deadline expires while queued: 503 queue_timeout.
		status, res, hdr := postSQL(t, ts.URL, "u1", `SELECT fid FROM big LIMIT 1`,
			map[string]string{"X-JUST-Timeout": "20ms"})
		wg.Wait()
		if status != http.StatusServiceUnavailable {
			t.Fatalf("status = %d (%+v), want 503", status, res)
		}
		if res.Code != "queue_timeout" {
			t.Fatalf("code = %q, want queue_timeout", res.Code)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("503 response missing Retry-After")
		}
	})

	t.Run("Kill", func(t *testing.T) {
		type result struct {
			status int
			res    streamResult
		}
		done := make(chan result, 1)
		go func() {
			status, res, _ := postSQL(t, ts.URL, "u1", slowSQL, nil)
			done <- result{status, res}
		}()
		// Find the victim in the registry.
		var id int64
		deadline := time.Now().Add(5 * time.Second)
		for id == 0 {
			if time.Now().After(deadline) {
				t.Fatal("query never appeared in /admin/queries")
			}
			m := getJSON(t, ts.URL+"/api/v1/admin/queries")
			if qs, ok := m["queries"].([]any); ok && len(qs) > 0 {
				q := qs[0].(map[string]any)
				if q["sql"].(string) == slowSQL {
					id = int64(q["id"].(float64))
					if q["user"].(string) != "u1" {
						t.Fatalf("registry user = %v", q["user"])
					}
					break
				}
			}
			time.Sleep(time.Millisecond)
		}
		body, _ := json.Marshal(killRequest{ID: id})
		resp, err := http.Post(ts.URL+"/api/v1/admin/queries/kill", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("kill status = %d", resp.StatusCode)
		}
		r := <-done
		if r.status != http.StatusUnprocessableEntity || r.res.Code != "killed" {
			t.Fatalf("killed query = %d %+v, want 422/killed", r.status, r.res)
		}
		if metricInt(t, ts.URL, "queries_killed") == 0 {
			t.Fatal("queries_killed not incremented")
		}
		// Killing a finished id is a 404.
		resp, err = http.Post(ts.URL+"/api/v1/admin/queries/kill", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("second kill status = %d, want 404", resp.StatusCode)
		}
	})

	t.Run("ClientDisconnect", func(t *testing.T) {
		before := metricInt(t, ts.URL, "queries_canceled")
		ctx, cancel := context.WithCancel(context.Background())
		body, _ := json.Marshal(sqlRequest{User: "u1", SQL: slowSQL})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/api/v1/sql", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		deadline := time.Now().Add(5 * time.Second)
		for metricInt(t, ts.URL, "queries_canceled") <= before {
			if time.Now().After(deadline) {
				t.Fatal("client disconnect never surfaced as queries_canceled")
			}
			time.Sleep(5 * time.Millisecond)
		}
	})

	t.Run("GoroutineLeak", func(t *testing.T) {
		base := runtime.NumGoroutine()
		for i := 0; i < 5; i++ {
			postSQL(t, ts.URL, "u1", slowSQL, map[string]string{"X-JUST-Timeout": "10ms"})
		}
		for i := 0; i < 100; i++ {
			if runtime.NumGoroutine() <= base+3 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("goroutines leaked after deadline-exceeded queries: base=%d now=%d", base, runtime.NumGoroutine())
	})

	if n := metricInt(t, ts.URL, "queries_active"); n != 0 {
		t.Fatalf("queries_active = %d at rest, want 0", n)
	}
	if metricInt(t, ts.URL, "queries_admitted") == 0 {
		t.Fatal("queries_admitted never incremented")
	}
}

// TestQueryMemBudgetHTTP verifies an over-budget query dies with the
// typed 422 body instead of ballooning server memory.
func TestQueryMemBudgetHTTP(t *testing.T) {
	ts, s := newTestServer(t, Options{QueryMemBudget: 2048})
	loadPoints(t, s.engine, "u1", 5000)
	status, res, _ := postSQL(t, ts.URL, "u1", `SELECT fid, geom, name FROM big`, nil)
	if status != http.StatusUnprocessableEntity || res.Code != "memory_budget" {
		t.Fatalf("got %d %+v, want 422 memory_budget", status, res)
	}
	if metricInt(t, ts.URL, "queries_mem_budget_kills") != 1 {
		t.Fatal("queries_mem_budget_kills not incremented")
	}
	// A small result stays within budget.
	status, res, _ = postSQL(t, ts.URL, "u1", `SELECT fid FROM big LIMIT 3`, nil)
	if status != http.StatusOK || res.Total != 3 {
		t.Fatalf("in-budget query = %d %+v", status, res)
	}
	if metricInt(t, ts.URL, "peak_query_bytes") == 0 {
		t.Fatal("peak_query_bytes not tracked")
	}
}

func TestSQLBodyLimits(t *testing.T) {
	ts, _ := newTestServer(t, Options{MaxBodyBytes: 256})

	// Oversized body: 413 with a typed JSON error.
	big, _ := json.Marshal(sqlRequest{User: "u", SQL: strings.Repeat("SELECT 1;", 200)})
	resp, err := http.Post(ts.URL+"/api/v1/sql", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// A failure before a stream starts is one JSON object, byte for
	// byte the shape clients have always parsed.
	const want = `{"total":0,"error":"request body exceeds 256 bytes","code":"body_too_large"}` + "\n"
	if resp.StatusCode != http.StatusRequestEntityTooLarge || string(raw) != want {
		t.Fatalf("got %d %s, want 413 %s", resp.StatusCode, raw, want)
	}

	// Wrong content type: 415.
	resp, err = http.Post(ts.URL+"/api/v1/sql", "text/plain", strings.NewReader(`{"sql":"SHOW TABLES"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain status = %d, want 415", resp.StatusCode)
	}

	// application/json with a charset parameter is accepted.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/sql", strings.NewReader(`{"sql":"SHOW TABLES"}`))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("charset variant status = %d, want 200", resp.StatusCode)
	}
}

// TestSQLBodyWithoutLength: a body of unknown length (the client sends
// it chunked, with no Content-Length) is read the same way: accepted under the cap, 413 over it, 400 when it
// is not one JSON object.
func TestSQLBodyWithoutLength(t *testing.T) {
	ts, _ := newTestServer(t, Options{MaxBodyBytes: 256})
	post := func(body string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/sql", io.MultiReader(strings.NewReader(body)))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	if status, raw := post(`{"user":"u","sql":"SHOW TABLES"}`); status != http.StatusOK {
		t.Fatalf("chunked SHOW TABLES = %d %s", status, raw)
	}
	big, _ := json.Marshal(sqlRequest{User: "u", SQL: strings.Repeat("SELECT 1;", 200)})
	const tooBig = `{"total":0,"error":"request body exceeds 256 bytes","code":"body_too_large"}` + "\n"
	if status, raw := post(string(big)); status != http.StatusRequestEntityTooLarge || raw != tooBig {
		t.Fatalf("chunked oversized body = %d %s, want 413 %s", status, raw, tooBig)
	}
	for _, body := range []string{``, `{"sql":`, `{"sql":"SHOW TABLES"} {}`} {
		if status, raw := post(body); status != http.StatusBadRequest || !strings.Contains(raw, "bad request: ") {
			t.Fatalf("body %q = %d %s, want 400 bad request", body, status, raw)
		}
	}
}

// TestChaosCancelDuringFailover cancels queries with tight deadlines
// while the primary region server is partitioned and healed underneath
// them (a router over three loopback region servers, one replica per
// region): no wedged requests, no goroutine leaks, and the server
// still answers.
func TestChaosCancelDuringFailover(t *testing.T) {
	lb := kv.NewLoopback()
	peers := []string{"s1", "s2", "s3"}
	for i, addr := range peers {
		node, err := kv.OpenRegionNode(t.TempDir(), kv.NodeOptions{NodeID: i + 1, Transport: lb})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		lb.Register(addr, node.Handler())
	}
	eng, err := core.Open(core.Config{
		Dir:    t.TempDir(),
		Router: &kv.RouterOptions{Peers: peers, Transport: lb, Replicas: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	s := New(eng, Options{})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Enough rows that the residual-predicate scan can never finish
	// inside the 5 ms deadline, even on an idle machine.
	loadPoints(t, eng, "u1", 100000)
	base := runtime.NumGoroutine()
	for round := 0; round < 6; round++ {
		if round == 2 {
			lb.SetDown("s1", true)
		}
		if round == 4 {
			lb.SetDown("s1", false)
		}
		status, res, _ := postSQL(t, ts.URL, "u1", slowSQL, map[string]string{"X-JUST-Timeout": "5ms"})
		if status != http.StatusUnprocessableEntity || res.Code != "deadline_exceeded" {
			t.Fatalf("round %d: %d %+v", round, status, res)
		}
	}
	if eng.Store().Metrics().Failovers == 0 {
		t.Fatal("Failovers = 0: the queries never met the partitioned primary")
	}
	// Recovery: an undeadlined query completes.
	status, res, _ := postSQL(t, ts.URL, "u1", `SELECT fid FROM big LIMIT 7`, nil)
	if status != http.StatusOK || res.Total != 7 {
		t.Fatalf("post-chaos query = %d %+v", status, res)
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after chaos: base=%d now=%d", base, runtime.NumGoroutine())
}
