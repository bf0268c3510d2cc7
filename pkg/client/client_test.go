package client

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// The happy paths (streaming, DDL, isolation) are covered end-to-end in
// internal/server; these tests pin the SDK's error behaviour against a
// scripted server.

func TestClientServerError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"error": "boom"})
	}))
	defer ts.Close()
	c := Connect(ts.URL, "u")
	if _, err := c.ExecuteQuery("SELECT 1"); err == nil {
		t.Fatal("server error should surface")
	}
}

func TestClientBadJSON(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not json"))
	}))
	defer ts.Close()
	c := Connect(ts.URL, "u")
	if _, err := c.ExecuteQuery("SELECT 1"); err == nil {
		t.Fatal("bad JSON should surface")
	}
}

func TestClientUnreachable(t *testing.T) {
	c := Connect("http://127.0.0.1:1", "u")
	if _, err := c.ExecuteQuery("SELECT 1"); err == nil {
		t.Fatal("unreachable server should surface")
	}
	if err := c.Health(); err == nil {
		t.Fatal("health check against dead server should fail")
	}
}

func TestResultSetPastEnd(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "{\"columns\":[\"a\"]}\n[1]\n{\"total\":1}\n")
	}))
	defer ts.Close()
	c := Connect(ts.URL, "u")
	rs, err := c.ExecuteQuery("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if !rs.HasNext() {
		t.Fatal("row expected")
	}
	if _, err := rs.Next(); err != nil {
		t.Fatal(err)
	}
	if rs.HasNext() {
		t.Fatal("no more rows expected")
	}
	if _, err := rs.Next(); err == nil {
		t.Fatal("Next past end should error")
	}
	if rs.Err() != nil {
		t.Fatalf("complete stream: Err = %v", rs.Err())
	}
}

func TestExecuteQueryContextCanceled(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer ts.Close()
	c := Connect(ts.URL, "u")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ExecuteQueryContext(ctx, "SELECT 1"); err == nil {
		t.Fatal("canceled context should abort the request")
	}
}

// TestStreamTruncatedIsError: a stream that ends without its terminal
// line, cleanly or on a cut connection, is an error, not a short result.
func TestStreamTruncatedIsError(t *testing.T) {
	for name, cut := range map[string]func(w http.ResponseWriter){
		"clean end": func(http.ResponseWriter) {},
		"cut connection": func(w http.ResponseWriter) {
			conn, _, err := http.NewResponseController(w).Hijack()
			if err == nil {
				conn.Close()
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, "{\"columns\":[\"a\"]}\n[1]\n")
				http.NewResponseController(w).Flush()
				cut(w)
			}))
			defer ts.Close()
			rs, err := Connect(ts.URL, "u").ExecuteQuery("SELECT 1")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rs.Next(); err != nil {
				t.Fatalf("first row: %v", err)
			}
			if rs.HasNext() {
				t.Fatal("row past the cut")
			}
			if rs.Err() == nil {
				t.Fatal("truncated stream read as a complete result")
			}
		})
	}
}

// TestResultSetCloseEndsRequest: Close before the terminal line closes
// the response, which ends the request on the server.
func TestResultSetCloseEndsRequest(t *testing.T) {
	ended := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "{\"columns\":[\"a\"]}\n[1]\n")
		http.NewResponseController(w).Flush()
		<-r.Context().Done()
		close(ended)
	}))
	defer ts.Close()
	rs, err := Connect(ts.URL, "u").ExecuteQuery("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("request still open after Close")
	}
	if rs.HasNext() {
		t.Fatal("closed result set must not iterate")
	}
	if _, err := rs.Next(); err == nil {
		t.Fatal("Next after Close should error")
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestHealthKeepsOneConnection: health checks read their reply to the
// end, so they and the statements after them share one connection.
func TestHealthKeepsOneConnection(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/health" {
			io.WriteString(w, "{\"regions\":1,\"status\":\"ok\"}\n")
			return
		}
		io.WriteString(w, "{\"columns\":[\"a\"]}\n[1]\n{\"total\":1}\n")
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	c := Connect(ts.URL, "u")
	for range 5 {
		if err := c.Health(); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := c.ExecuteQuery("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for rs.HasNext() {
		rs.Next()
	}
	if rs.Err() != nil {
		t.Fatal(rs.Err())
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("5 health checks and a query opened %d connections, want 1", n)
	}
}
