package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"just/internal/core"
	"just/internal/geom"
	"just/internal/kv"
	"just/pkg/client"
)

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Server) {
	t.Helper()
	eng, err := core.Open(core.Config{
		Dir:     t.TempDir(),
		Cluster: kv.ClusterOptions{Options: kv.Options{DisableWAL: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	s := New(eng, opts)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

// streamResult is a statement's whole response folded into one value:
// the header, the rows and the terminal line of a stream, or only the
// error object of a statement that failed before its stream started.
type streamResult struct {
	streamHeader
	Rows [][]any
	sqlResponse
}

// readStream folds a response body into a streamResult. It fails the
// test on a stream without its terminal line, on anything after that
// line, and on a row count that disagrees with the terminal total.
func readStream(t *testing.T, r io.Reader) streamResult {
	t.Helper()
	dec := json.NewDecoder(r)
	var out streamResult
	var first json.RawMessage
	if err := dec.Decode(&first); err != nil {
		t.Fatalf("response without a first line: %v", err)
	}
	if err := json.Unmarshal(first, &out.sqlResponse); err != nil {
		t.Fatalf("first line %s: %v", first, err)
	}
	if out.Error != "" {
		return out
	}
	if err := json.Unmarshal(first, &out.streamHeader); err != nil {
		t.Fatalf("header %s: %v", first, err)
	}
	for {
		var line json.RawMessage
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("stream ended without its terminal line: %v", err)
		}
		if line[0] == '{' {
			if err := json.Unmarshal(line, &out.sqlResponse); err != nil {
				t.Fatalf("terminal line %s: %v", line, err)
			}
			break
		}
		var row []any
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("row %s: %v", line, err)
		}
		out.Rows = append(out.Rows, row)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("data after the terminal line (%v)", err)
	}
	if out.Total != len(out.Rows) {
		t.Fatalf("terminal total %d, %d rows streamed", out.Total, len(out.Rows))
	}
	return out
}

func post(t *testing.T, url, user, sqlText string) streamResult {
	t.Helper()
	_, res, _ := postSQL(t, url, user, sqlText, nil)
	return res
}

func TestServerDDLAndQuery(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	res := post(t, ts.URL, "u1", `CREATE TABLE p (fid integer:primary key, geom point)`)
	if res.Error != "" || !strings.Contains(res.Message, "created") {
		t.Fatalf("create = %+v", res)
	}
	res = post(t, ts.URL, "u1", `INSERT INTO p VALUES (1, st_makePoint(116.4, 39.9))`)
	if res.Error != "" {
		t.Fatalf("insert = %+v", res)
	}
	res = post(t, ts.URL, "u1", `SELECT fid, geom FROM p WHERE geom WITHIN st_makeMBR(116, 39, 117, 40)`)
	if res.Error != "" || res.Total != 1 {
		t.Fatalf("select = %+v", res)
	}
	if res.Columns[1] != "geom" {
		t.Fatalf("columns = %v", res.Columns)
	}
	g, ok := res.Rows[0][1].(map[string]any)
	if !ok || !strings.HasPrefix(g["wkt"].(string), "POINT") {
		t.Fatalf("geometry encoding = %v", res.Rows[0][1])
	}
}

func TestServerErrors(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	res := post(t, ts.URL, "u1", `SELEKT * FROM x`)
	if res.Error == "" {
		t.Fatal("bad SQL should report an error")
	}
	resp, err := http.Get(ts.URL + "/api/v1/sql")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	// Results stream in one response: there is no fetch endpoint.
	resp, err = http.Get(ts.URL + "/api/v1/fetch?cursor=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fetch status = %d, want 404", resp.StatusCode)
	}
}

func TestServerHealth(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health = %d", resp.StatusCode)
	}
}

func TestStreamWithSDK(t *testing.T) {
	ts, _ := newTestServer(t, Options{PageSize: 10})
	c := client.Connect(ts.URL, "u1")
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(`CREATE TABLE p (fid integer:primary key, geom point)`); err != nil {
		t.Fatal(err)
	}
	var values []string
	for i := 0; i < 35; i++ {
		values = append(values, fmt.Sprintf("(%d, st_makePoint(%g, 39.9))", i, 116.0+float64(i)*0.001))
	}
	if _, err := c.Execute(`INSERT INTO p VALUES ` + strings.Join(values, ",")); err != nil {
		t.Fatal(err)
	}
	rs, err := c.ExecuteQuery(`SELECT fid FROM p WHERE geom WITHIN st_makeMBR(115,39,117,40) ORDER BY fid`)
	if err != nil {
		t.Fatal(err)
	}
	// 35 rows with page size 10: the Fig. 2 multi-transmission path.
	n := 0
	for rs.HasNext() {
		row, err := rs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if int(row[0].(float64)) != n {
			t.Fatalf("row %d = %v", n, row)
		}
		n++
	}
	if rs.Err() != nil {
		t.Fatal(rs.Err())
	}
	if n != 35 {
		t.Fatalf("paged through %d rows, want 35", n)
	}
}

// TestEncodeValueForms: the wire forms of the values JSON has no type
// for, and a scalar, as the row appender writes them.
func TestEncodeValueForms(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{[]geom.TPoint{{Point: geom.Point{Lng: 1, Lat: 2}, T: 3}}, `{"st_series":[[1,2,3]]}`},
		{[]byte{1, 2, 3}, `{"bytes":"AQID"}`},
		{int64(5), `5`},
		{geom.Point{Lng: 1, Lat: 2}, `{"wkt":"POINT (1 2)"}`},
	} {
		got, err := appendValue(nil, c.v)
		if err != nil || string(got) != c.want {
			t.Errorf("%T encoded as %s (%v), want %s", c.v, got, err, c.want)
		}
	}
}

func TestUserIsolationOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	a := client.Connect(ts.URL, "alice")
	b := client.Connect(ts.URL, "bob")
	a.Execute(`CREATE TABLE t (fid integer:primary key, geom point)`)
	a.Execute(`INSERT INTO t VALUES (1, st_makePoint(1,1))`)
	if _, err := b.ExecuteQuery(`SELECT * FROM t`); err == nil {
		t.Fatal("bob should not see alice's table")
	}
}

func TestServerMetrics(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	post(t, ts.URL, "u1", `CREATE TABLE p (fid integer:primary key, geom point)`)
	for i := 0; i < 5; i++ {
		post(t, ts.URL, "u1", fmt.Sprintf(`INSERT INTO p VALUES (%d, st_makePoint(116.4, 39.9))`, i))
	}
	post(t, ts.URL, "u1", `SELECT fid FROM p WHERE geom WITHIN st_makeMBR(116, 39, 117, 40)`)
	resp, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"regions", "scan_tasks", "scan_pairs"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q: %v", key, m)
		}
	}
	if m["scan_pairs"].(float64) <= 0 {
		t.Errorf("scan_pairs = %v, want > 0 after a scan", m["scan_pairs"])
	}
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAdminScrubEndpoints: GET reports integrity state, POST runs a
// synchronous scrub pass, and the integrity counters are on /metrics.
func TestAdminScrubEndpoints(t *testing.T) {
	ts, s := newTestServer(t, Options{})
	var b kv.WriteBatch
	b.Put([]byte("k"), []byte("v"))
	if err := s.engine.Cluster().ApplyCtx(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	if err := s.engine.Cluster().Flush(); err != nil {
		t.Fatal(err)
	}

	m := getJSON(t, ts.URL+"/api/v1/admin/scrub")
	scrub, ok := m["scrub"].(map[string]any)
	if !ok {
		t.Fatalf("scrub state = %v", m)
	}
	if scrub["runs"].(float64) != 0 {
		t.Fatalf("runs before any scrub = %v", scrub["runs"])
	}
	if nodes := scrub["nodes"].([]any); len(nodes) == 0 {
		t.Fatalf("no nodes in scrub state: %v", scrub)
	}

	resp, err := http.Post(ts.URL+"/api/v1/admin/scrub/run", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrub/run status = %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if errMsg, ok := out["error"]; ok {
		t.Fatalf("scrub reported error on healthy store: %v", errMsg)
	}
	scrub = out["scrub"].(map[string]any)
	if scrub["runs"].(float64) != 1 || scrub["blocks_scrubbed"].(float64) == 0 {
		t.Fatalf("scrub after run = %v", scrub)
	}

	// GET on the run endpoint and POST on the state endpoint are rejected.
	if r2, _ := http.Get(ts.URL + "/api/v1/admin/scrub/run"); r2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET scrub/run = %d", r2.StatusCode)
	}
	if r3, _ := http.Post(ts.URL+"/api/v1/admin/scrub", "application/json", nil); r3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST scrub = %d", r3.StatusCode)
	}

	mm := getJSON(t, ts.URL+"/api/v1/metrics")
	for _, key := range []string{
		"corruptions_detected", "read_retries", "blocks_scrubbed",
		"scrub_runs", "orphans_removed",
	} {
		if _, ok := mm[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if mm["blocks_scrubbed"].(float64) == 0 {
		t.Errorf("blocks_scrubbed = %v, want > 0", mm["blocks_scrubbed"])
	}
}

// TestMetricsKeySetGolden pins the exact key set of /api/v1/metrics:
// the storage counters reach the response through kv.Metrics' json
// tags, so a renamed tag or a dropped gauge must fail here. A new
// counter adds its tag to this list.
func TestMetricsKeySetGolden(t *testing.T) {
	want := []string{
		"batches_decoded", "block_cache_hits", "block_cache_misses", "blocks_read",
		"blocks_scrubbed", "blocks_skipped", "bloom_negatives",
		"breaker_fast_fails", "breaker_opens", "bytes_read", "bytes_written",
		"codecs", "compactions", "compactions_deferred", "corruptions_detected",
		"deadline_aborts", "disk_free_bytes", "disk_pressure",
		"failovers", "flush_queue_depth", "flushes", "group_commit_records",
		"group_commits", "jobs", "jobs_healthy", "orphans_removed",
		"peak_query_bytes", "queries_active", "queries_admitted",
		"queries_canceled", "queries_deadline_exceeded", "queries_killed",
		"queries_mem_budget_kills", "queries_queued", "queries_shed",
		"read_retries", "region_merges", "region_moves", "region_splits",
		"regions", "rpc_bytes_in", "rpc_bytes_out", "rpc_hedge_wins",
		"rpc_hedges", "rpc_redials", "rpc_retries", "scan_cancels",
		"scan_pairs", "scan_tasks", "scrub_runs",
		"slow_queries", "stale_map_refreshes",
		"stats_refreshes", "wal_sync_bytes", "wal_syncs",
		"write_stall_nanos", "write_stalls",
	}
	ts, _ := newTestServer(t, Options{})
	m := getJSON(t, ts.URL+"/api/v1/metrics")
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics key set changed:\n got %v\nwant %v", got, want)
	}
	// Counters stay JSON numbers, as the hand-written map emitted them.
	if _, ok := m["bytes_written"].(float64); !ok {
		t.Fatalf("bytes_written = %T, want a number", m["bytes_written"])
	}
}
