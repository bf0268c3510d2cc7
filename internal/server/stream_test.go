package server

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"just/pkg/client"
)

// hookWriter calls before(n, r) ahead of the n'th Write (from 1) of a
// response, so a test can stall the stream at a chosen line: the
// server encodes one line per Write. Unwrap keeps the underlying
// writer's Flush reachable through http.ResponseController.
type hookWriter struct {
	http.ResponseWriter
	r      *http.Request
	n      int
	before func(n int, r *http.Request)
}

func (w *hookWriter) Write(p []byte) (int, error) {
	w.n++
	w.before(w.n, w.r)
	return w.ResponseWriter.Write(p)
}

func (w *hookWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// hooked serves s's routes with every response behind a hookWriter.
func hooked(t *testing.T, s *Server, before func(n int, r *http.Request)) *httptest.Server {
	t.Helper()
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&hookWriter{ResponseWriter: w, r: r, before: before}, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestStreamDeadlineAfterHeader: a deadline that passes once the header
// is written ends the stream with a deadline_exceeded terminal line,
// counted once.
func TestStreamDeadlineAfterHeader(t *testing.T) {
	ts, s := newTestServer(t, Options{QueryTimeout: 200 * time.Millisecond})
	loadPoints(t, s.engine, "u1", 10)
	slow := hooked(t, s, func(n int, _ *http.Request) {
		if n == 1 {
			time.Sleep(400 * time.Millisecond)
		}
	})
	status, res, _ := postSQL(t, slow.URL, "u1", `SELECT fid FROM big`, nil)
	if status != http.StatusOK || len(res.Columns) != 1 {
		t.Fatalf("got %d %+v, want a 200 stream with its header", status, res)
	}
	if res.Code != "deadline_exceeded" || res.Error == "" || res.Total != 0 {
		t.Fatalf("terminal line = %+v, want deadline_exceeded after 0 rows", res.sqlResponse)
	}
	if n := metricInt(t, ts.URL, "queries_deadline_exceeded"); n != 1 {
		t.Fatalf("queries_deadline_exceeded = %d, want 1", n)
	}
	// The SDK reports the terminal line's error through Err.
	rs, err := client.Connect(slow.URL, "u1").ExecuteQuery(`SELECT fid FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.HasNext() || rs.Err() == nil {
		t.Fatalf("SDK: HasNext after a broken stream, or no Err (%v)", rs.Err())
	}
	if n := metricInt(t, ts.URL, "queries_deadline_exceeded"); n != 2 {
		t.Fatalf("queries_deadline_exceeded = %d after the second stream, want 2", n)
	}
}

// TestStreamKeepsOneConnection: sequential statements through one
// Client reuse one connection, so every stream is read to its end.
func TestStreamKeepsOneConnection(t *testing.T) {
	_, s := newTestServer(t, Options{PageSize: 3})
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c := client.Connect(ts.URL, "u1")
	if _, err := c.Execute(`CREATE TABLE p (fid integer:primary key, geom point)`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		stmt := `SELECT fid FROM p`
		if i%2 == 1 {
			stmt = fmt.Sprintf(`INSERT INTO p VALUES (%d, st_makePoint(116.4, 39.9))`, i)
		}
		rs, err := c.ExecuteQuery(stmt)
		if err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		for rs.HasNext() {
			rs.Next()
		}
		if rs.Err() != nil {
			t.Fatalf("statement %d: %v", i, rs.Err())
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("20 statements opened %d connections, want 1", n)
	}
}

// TestStreamCloseCancelsQuery: Close after the first row of a
// multi-batch result ends the request; the query leaves the registry
// and no goroutine stays behind.
func TestStreamCloseCancelsQuery(t *testing.T) {
	ts, s := newTestServer(t, Options{PageSize: 1})
	loadPoints(t, s.engine, "u1", 2000)
	// After the header and the first row, the response stalls like a
	// client that stopped reading, until the request ends.
	stalled := hooked(t, s, func(n int, r *http.Request) {
		if n > 2 {
			<-r.Context().Done()
		}
	})
	metricInt(t, ts.URL, "queries_active")
	base := runtime.NumGoroutine()
	rs, err := client.Connect(stalled.URL, "u1").ExecuteQuery(`SELECT fid, geom, name FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Next(); err != nil {
		t.Fatal(err)
	}
	if n := metricInt(t, ts.URL, "queries_active"); n != 1 {
		t.Fatalf("queries_active = %d while the stream is open, want 1", n)
	}
	rs.Close()
	deadline := time.Now().Add(5 * time.Second)
	for metricInt(t, ts.URL, "queries_active") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("query still registered after Close")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for runtime.NumGoroutine() > base+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: base=%d now=%d", base, runtime.NumGoroutine())
		}
		http.DefaultClient.CloseIdleConnections()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamManyPagesOneRequest: a result of many pages is one HTTP
// request, and every row arrives.
func TestStreamManyPagesOneRequest(t *testing.T) {
	_, s := newTestServer(t, Options{PageSize: 5})
	loadPoints(t, s.engine, "u1", 100)
	var requests atomic.Int64
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	rs, err := client.Connect(ts.URL, "u1").ExecuteQuery(`SELECT fid FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rs.HasNext() {
		if _, err := rs.Next(); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if rs.Err() != nil || n != 100 {
		t.Fatalf("read %d rows (err %v), want 100", n, rs.Err())
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("20 pages took %d requests, want 1", got)
	}
	// Once the response ends the server holds nothing for it: no
	// registered query, and no cursor janitor on the scheduler.
	if n := metricInt(t, ts.URL, "queries_active"); n != 0 {
		t.Fatalf("queries_active = %d after the stream ended", n)
	}
	for _, j := range getJobsStatus(t, ts.URL).Jobs {
		if strings.Contains(j.Name, "cursor") {
			t.Fatalf("cursor job %q on the scheduler", j.Name)
		}
	}
}

// TestStreamUnencodableValue: a value JSON cannot carry (here a NaN)
// ends the stream after the last whole row with an error terminal
// line, and the SDK's Err returns that error.
func TestStreamUnencodableValue(t *testing.T) {
	ts, _ := newTestServer(t, Options{PageSize: 2})
	c := client.Connect(ts.URL, "u1")
	if _, err := c.Execute(`CREATE TABLE p (fid integer:primary key, x double, geom point)`); err != nil {
		t.Fatal(err)
	}
	for i, x := range []int{4, 9, 16, -1, 25} {
		if _, err := c.Execute(fmt.Sprintf(`INSERT INTO p VALUES (%d, %d, st_makePoint(116.4, 39.9))`, i+1, x)); err != nil {
			t.Fatal(err)
		}
	}
	const stmt = `SELECT fid, sqrt(x) FROM p ORDER BY fid`
	status, res, _ := postSQL(t, ts.URL, "u1", stmt, nil)
	if status != http.StatusOK || len(res.Columns) != 2 {
		t.Fatalf("got %d %+v, want a 200 stream with its header", status, res)
	}
	if res.Total != 3 || !strings.Contains(res.Error, "unsupported value: NaN") {
		t.Fatalf("terminal line = %+v, want the NaN error after 3 rows", res.sqlResponse)
	}
	for i, row := range res.Rows {
		if row[0].(float64) != float64(i+1) || row[1].(float64) != float64(i+2) {
			t.Fatalf("row %d = %v, want [%d %d]", i, row, i+1, i+2)
		}
	}
	rs, err := c.ExecuteQuery(stmt)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rs.HasNext() {
		rs.Next()
		n++
	}
	if n != 3 || rs.Err() == nil || !strings.Contains(rs.Err().Error(), "unsupported value: NaN") {
		t.Fatalf("SDK read %d rows, Err %v; want 3 rows and the NaN error", n, rs.Err())
	}
}
